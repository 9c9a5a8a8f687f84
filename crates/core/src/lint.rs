//! Speculation-safety lints for Spice-transformed programs.
//!
//! The structural verifier ([`spice_ir::verify`]) proves a program is a
//! valid IR artifact; these lints prove a *transformed* program still
//! implements the Spice protocol. They run on every transform output (and
//! from the `spice-lint` binary) against the [`SpiceParallelLoop`] record
//! the transformation returns about itself — channel roles, worker cores,
//! recovery blocks and the main function's protocol skeleton.
//!
//! The lint catalog:
//!
//! * **protocol contract** — the conversation between the main thread and
//!   each worker is written down once, as words over protocol events
//!   (`contract`): the release message (the worker's start row of `sva`,
//!   its successor's row for all but the last worker, the invariant
//!   live-ins), the status, the commit or squash, the live-outs. Every path
//!   follows a word: main's CFG, walked once per worker and projected onto
//!   that worker's events, and each worker from its entry and from its
//!   recovery block. Every protocol instruction must be a legal next event
//!   and every `ret` must end a whole word; an instruction no word holds (a
//!   `spec.check` under `AssumeIndependent` or naming no worker, a
//!   speculation op outside the workers) is an error, and no protocol
//!   channel is touched by a foreign function.
//! * **boundary shape** — the recorded skeleton blocks are wired exactly
//!   as the transform documents (every back edge of the instrumented loop
//!   is its latch test; under detection, the throttle and the resume after
//!   a violation both enter the lean loop), a recovery block is
//!   entered only by a resteer, and every remote resteer targets its
//!   worker's recovery block.

use std::fmt;

use serde::{Deserialize, Serialize};

use spice_ir::cfg::Cfg;
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
    /// Boundary detection: the live-in comparison against the predicted
    /// boundary, the latch test's slow path.
    pub check: BlockId,
    /// The instrumented loop's header: every edge into it from inside the
    /// loop is a latch test, `condbr _, check, header`.
    pub header: BlockId,
    /// Memoization entry.
    pub memo: BlockId,
    /// Boundary hit (successor speculated correctly).
    pub hit: BlockId,
    /// First block of the per-worker commit chain; the loop exit lands here.
    pub chain: BlockId,
    /// The main thread's work-counter store before the original post-loop
    /// code.
    pub finish: BlockId,
    /// The paths on which the main thread runs the loop alone (conflict
    /// detection only).
    pub serial: Option<SerialShape>,
}

/// The blocks through which a detecting loop's main thread runs the loop
/// alone, on the lean copy, whose exit goes to [`MainShape::finish`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SerialShape {
    /// The throttled invocation's entry: every worker resteered with no
    /// task, then the lean loop.
    pub throttle: BlockId,
    /// End of the merge chain: resume after a dependence violation, or
    /// finish.
    pub tail: BlockId,
    /// The resume after a dependence violation: the first arrival's memo
    /// test, into the lean loop.
    pub resume: BlockId,
    /// The lean loop's header.
    pub lean: BlockId,
    /// The lean loop's memoization block.
    pub lean_memo: BlockId,
}

/// A single speculation-safety lint failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LintError {
    /// A path breaks the protocol contract: the event at `block[ip]` (the
    /// block's terminator when `ip` is its instruction count) does not
    /// extend worker `core`'s word, or no word holds it.
    Protocol {
        /// Function holding the event.
        func: String,
        /// The worker whose word breaks; for an event no word holds, the
        /// core a `spec.check` names, or -1.
        core: i64,
        /// Block holding the event.
        block: BlockId,
        /// Instruction index of the event.
        ip: usize,
        /// The events the contract allows there.
        expected: String,
        /// The event found.
        found: String,
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
    /// A worker's recovery block has in-function predecessors: only the
    /// main thread's resteer may enter it.
    RecoveryShape {
        /// The worker function.
        func: String,
        /// The recovery block.
        block: BlockId,
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
            LintError::Protocol {
                func,
                core,
                block,
                ip,
                expected,
                found,
            } => write!(
                f,
                "protocol: @{func}: worker core {core}: {block}[{ip}] is `{found}`, the contract expects {expected}"
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
            LintError::ShapeEdge {
                func,
                block,
                expected,
            } => write!(
                f,
                "boundary-shape: @{func}: {block} is mis-wired — expected {expected}"
            ),
            LintError::RecoveryShape { func, block } => write!(
                f,
                "boundary-shape: @{func}: recovery block {block} has in-function predecessors; only a resteer may enter it"
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
            LintError::Protocol { func, .. }
            | LintError::ForeignChannelOp { func, .. }
            | LintError::ShapeEdge { func, .. }
            | LintError::RecoveryShape { func, .. }
            | LintError::ResteerTarget { func, .. } => Some(func),
            _ => None,
        }
    }

    /// The block the error points at, if any.
    #[must_use]
    pub fn block(&self) -> Option<BlockId> {
        match self {
            LintError::Protocol { block, .. }
            | LintError::ForeignChannelOp { block, .. }
            | LintError::ShapeEdge { block, .. }
            | LintError::RecoveryShape { block, .. }
            | LintError::ResteerTarget { block, .. } => Some(*block),
            _ => None,
        }
    }

    /// The instruction index the error points at, if any.
    #[must_use]
    pub fn ip(&self) -> Option<usize> {
        match self {
            LintError::Protocol { ip, .. } | LintError::ForeignChannelOp { ip, .. } => Some(*ip),
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

/// A message on one of a worker's four channels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Msg {
    Inv,
    Status,
    Command,
    Live,
}

/// One letter of the protocol contract: what an instruction, or a worker's
/// `ret`, says to or as one worker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Ev {
    Send(Msg),
    Recv(Msg),
    Check,
    Resteer,
    Begin,
    Commit,
    Abort,
    Ret,
}

impl fmt::Display for Ev {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let msg = |m: &Msg| match m {
            Msg::Inv => "inv",
            Msg::Status => "status",
            Msg::Command => "command",
            Msg::Live => "live",
        };
        match self {
            Ev::Send(m) => write!(f, "send {}", msg(m)),
            Ev::Recv(m) => write!(f, "recv {}", msg(m)),
            Ev::Check => f.write_str("spec.check"),
            Ev::Resteer => f.write_str("resteer"),
            Ev::Begin => f.write_str("spec.begin"),
            Ev::Commit => f.write_str("spec.commit"),
            Ev::Abort => f.write_str("spec.abort"),
            Ev::Ret => f.write_str("ret"),
        }
    }
}

/// The protocol contract between the main thread and worker `wi`, written
/// once: main's words, the worker's word from its entry, and its word from
/// its recovery block. With `N = rows × spec_width + invariants` (two rows
/// for every worker but the last) and `L = liveout_width()`:
///
/// * main: `send inv×N`, then `recv status, [spec.check], send command,
///   recv live×L` (the check only under conflict detection), or `recv
///   status, spec.check, resteer` (detection only), or `resteer`; or,
///   on a throttled invocation (detection only), `resteer` alone: the
///   worker is released with no task before anything is sent to it, and
///   nothing is received from it;
/// * worker: `recv inv×N, spec.begin, send status, recv command,
///   spec.commit, send live×L, ret`; from recovery, `spec.abort, ret`.
///
/// Main's words hold no `ret`: once every word is whole, the main thread
/// runs on to its own return.
fn contract(spice: &SpiceParallelLoop, wi: usize) -> [Vec<Vec<Ev>>; 3] {
    use Msg::{Command, Inv, Live, Status};
    let rows = if wi + 1 < spice.workers.len() { 2 } else { 1 };
    let n = rows * spice.layout.spec_width + spice.invariants_sent.len();
    let l = spice.liveout_width();
    let check = usize::from(spice.conflict_detection);
    let word = |letters: &[(Ev, usize)]| -> Vec<Ev> {
        letters
            .iter()
            .flat_map(|&(ev, k)| std::iter::repeat_n(ev, k))
            .collect()
    };
    // Without detection the second word is the third.
    let mut main = vec![
        word(&[
            (Ev::Send(Inv), n),
            (Ev::Recv(Status), 1),
            (Ev::Check, check),
            (Ev::Send(Command), 1),
            (Ev::Recv(Live), l),
        ]),
        word(&[
            (Ev::Send(Inv), n),
            (Ev::Recv(Status), check),
            (Ev::Check, check),
            (Ev::Resteer, 1),
        ]),
        word(&[(Ev::Send(Inv), n), (Ev::Resteer, 1)]),
    ];
    if spice.conflict_detection {
        main.push(vec![Ev::Resteer]);
    }
    let entry = word(&[
        (Ev::Recv(Inv), n),
        (Ev::Begin, 1),
        (Ev::Send(Status), 1),
        (Ev::Recv(Command), 1),
        (Ev::Commit, 1),
        (Ev::Send(Live), l),
        (Ev::Ret, 1),
    ]);
    [main, vec![entry], vec![vec![Ev::Abort, Ev::Ret]]]
}

/// A protocol event in a function: the instruction at `ip` speaks `ev` to,
/// or as, worker `worker` (an index into [`SpiceParallelLoop::workers`]).
#[derive(Clone, Copy)]
struct Event {
    ip: usize,
    worker: usize,
    ev: Ev,
}

/// The protocol events of function `fid`, per block. The transform only
/// ever emits immediate channel and core operands, so a register-indirect
/// channel op never belongs to the protocol (and leaves a word unfinished
/// on the path it sits on). Reports what no walk sees: an op on another
/// pair's channel, and an instruction no word holds — a `spec.check`
/// outside the main function or naming no worker, a `spec.begin`,
/// `spec.commit` or `spec.abort` outside the workers. A resteer outside the
/// main function or naming no worker is `lint_boundary_shape`'s.
fn scan_events(
    program: &Program,
    fid: FuncId,
    spice: &SpiceParallelLoop,
    errs: &mut Vec<LintError>,
) -> Vec<Vec<Event>> {
    let func = program.func(fid);
    let is_main = fid == spice.main;
    let own = spice.workers.iter().position(|w| w.func == fid);
    let named = |core: &Operand| match core {
        Operand::Imm(c) => spice.workers.iter().position(|w| w.core as i64 == *c),
        Operand::Reg(_) => None,
    };
    let channel = |id: i64| {
        spice.workers.iter().enumerate().find_map(|(wi, w)| {
            let c = &w.channels;
            let roles = [
                (c.invariant, Msg::Inv),
                (c.status, Msg::Status),
                (c.command, Msg::Command),
                (c.liveout, Msg::Live),
            ];
            roles
                .into_iter()
                .find(|&(chan, _)| chan == id)
                .map(|(_, m)| (wi, m))
        })
    };
    let mut events = vec![Vec::new(); func.blocks.len()];
    for b in func.block_ids() {
        for (ip, inst) in func.block(b).insts.iter().enumerate() {
            let (ev, worker) = match inst {
                Inst::Send {
                    chan: Operand::Imm(id),
                    ..
                }
                | Inst::Recv {
                    chan: Operand::Imm(id),
                    ..
                } => {
                    let Some((wi, m)) = channel(*id) else {
                        continue;
                    };
                    if !is_main && own != Some(wi) {
                        errs.push(LintError::ForeignChannelOp {
                            func: func.name.clone(),
                            chan: *id,
                            block: b,
                            ip,
                        });
                        continue;
                    }
                    let send = matches!(inst, Inst::Send { .. });
                    (if send { Ev::Send(m) } else { Ev::Recv(m) }, Some(wi))
                }
                Inst::SpecCheck { core, .. } => (Ev::Check, named(core).filter(|_| is_main)),
                Inst::Resteer { core, .. } => match named(core) {
                    Some(wi) if is_main => (Ev::Resteer, Some(wi)),
                    _ => continue,
                },
                Inst::SpecBegin => (Ev::Begin, own),
                Inst::SpecCommit => (Ev::Commit, own),
                Inst::SpecAbort => (Ev::Abort, own),
                _ => continue,
            };
            match worker {
                Some(worker) => events[b.index()].push(Event { ip, worker, ev }),
                None => errs.push(LintError::Protocol {
                    func: func.name.clone(),
                    core: match inst {
                        Inst::SpecCheck {
                            core: Operand::Imm(c),
                            ..
                        } => *c,
                        _ => -1,
                    },
                    block: b,
                    ip,
                    expected: "nothing: no word of the contract holds it".to_string(),
                    found: ev.to_string(),
                }),
            }
        }
    }
    events
}

/// What the lint passes read of one function, built once per lint run.
struct FuncCtx<'a> {
    func: &'a Function,
    cfg: Cfg,
    events: Vec<Vec<Event>>,
}

impl<'a> FuncCtx<'a> {
    fn new(
        program: &'a Program,
        fid: FuncId,
        spice: &SpiceParallelLoop,
        errs: &mut Vec<LintError>,
    ) -> Self {
        let func = program.func(fid);
        let events = scan_events(program, fid, spice, errs);
        FuncCtx {
            func,
            cfg: Cfg::new(func),
            events,
        }
    }
}

/// Runs the full speculation-safety lint stack over a transformed program.
///
/// # Errors
///
/// Returns every lint failure found, most fundamental first (metadata, then
/// the protocol contract, shape).
pub fn lint_spice(program: &Program, spice: &SpiceParallelLoop) -> Result<(), Vec<LintError>> {
    let mut errs = Vec::new();
    if let Err(mut meta) = check_protocol_metadata(spice) {
        errs.append(&mut meta);
    }

    // One context per function, indexed by `FuncId`, shared by every pass.
    let ctxs: Vec<FuncCtx<'_>> = program
        .func_ids()
        .into_iter()
        .map(|fid| FuncCtx::new(program, fid, spice, &mut errs))
        .collect();

    lint_contract(spice, &ctxs, &mut errs);
    lint_boundary_shape(program, spice, &ctxs, &mut errs);

    if errs.is_empty() {
        Ok(())
    } else {
        Err(errs)
    }
}

/// The protocol contract ([`contract`]): main's CFG walked once per worker,
/// and each worker from its entry and from its recovery block.
fn lint_contract(spice: &SpiceParallelLoop, ctxs: &[FuncCtx<'_>], errs: &mut Vec<LintError>) {
    let main = &ctxs[spice.main.index()];
    let lean: Vec<BlockId> = spice
        .shape
        .serial
        .iter()
        .flat_map(|s| [s.lean, s.lean_memo])
        .collect();
    for (wi, w) in spice.workers.iter().enumerate() {
        let [main_words, entry, recovery] = contract(spice, wi);
        let worker = &ctxs[w.func.index()];
        let core = w.core as i64;
        walk(main, wi, core, main.cfg.entry(), &main_words, &lean, errs);
        walk(worker, wi, core, worker.cfg.entry(), &entry, &[], errs);
        walk(worker, wi, core, w.recovery_block, &recovery, &[], errs);
    }
}

/// The index of a word that extends `words[w][..p]` with `ev`.
fn step(words: &[Vec<Ev>], w: usize, p: usize, ev: Ev) -> Option<usize> {
    let prefix = &words[w][..p];
    words
        .iter()
        .position(|x| x.get(p) == Some(&ev) && x.starts_with(prefix))
}

/// The letters that may follow `words[w][..p]`, in word order.
fn next_letters(words: &[Vec<Ev>], w: usize, p: usize) -> Vec<Ev> {
    let mut next: Vec<Ev> = Vec::new();
    for x in words.iter().filter(|x| x.starts_with(&words[w][..p])) {
        if let Some(&ev) = x.get(p) {
            if !next.contains(&ev) {
                next.push(ev);
            }
        }
    }
    next
}

/// Walks `ctx` from `start` along every path, projected onto worker `wi`'s
/// events, against `words`, with an explicit worklist over `(block, word
/// position)`. A position is a word prefix, kept as `(word, length)`. Every
/// event must extend the prefix and every `ret` must end a whole word; once
/// a worker's word has only its `ret` left, the block must return. The
/// merge chain is behind the main thread in the lean loop, so the word must
/// be whole at the end of every block with an edge into one of `lean`'s
/// entries. A path stops at its first error, and each `(block, ip)` is
/// reported once.
fn walk(
    ctx: &FuncCtx<'_>,
    wi: usize,
    core: i64,
    start: BlockId,
    words: &[Vec<Ev>],
    lean: &[BlockId],
    errs: &mut Vec<LintError>,
) {
    let width = words.iter().map(Vec::len).max().unwrap_or(0) + 1;
    let states = words.len() * width;
    let mut seen = vec![false; ctx.cfg.block_count() * states];
    let mut flagged: Vec<(BlockId, usize)> = Vec::new();
    let mut stack = vec![(start, 0, 0)];
    while let Some((b, mut w, mut p)) = stack.pop() {
        if std::mem::replace(&mut seen[b.index() * states + w * width + p], true) {
            continue;
        }
        let mut broken = None;
        for e in ctx.events[b.index()].iter().filter(|e| e.worker == wi) {
            match step(words, w, p, e.ev) {
                // No word is a proper prefix of another, so nothing may
                // follow any whole word and one state stands for them all.
                Some(next) if words[next].len() == p + 1 => (w, p) = (0, words[0].len()),
                Some(next) => (w, p) = (next, p + 1),
                None => {
                    broken = Some((e.ip, e.ev.to_string()));
                    break;
                }
            }
        }
        let block = ctx.func.block(b);
        let end = block.insts.len();
        let whole = words.iter().any(|x| x[..] == words[w][..p]);
        let enters_lean = || ctx.cfg.succs(b).iter().any(|s| lean.contains(s));
        let broken = broken.or_else(|| match &block.terminator {
            Terminator::Ret { .. } => {
                (!whole && step(words, w, p, Ev::Ret).is_none()).then(|| (end, Ev::Ret.to_string()))
            }
            term if !whole && enters_lean() => Some((end, term.to_string())),
            term => (words[w].get(p) == Some(&Ev::Ret) && next_letters(words, w, p) == [Ev::Ret])
                .then(|| (end, term.to_string())),
        });
        if let Some((ip, found)) = broken {
            if !flagged.contains(&(b, ip)) {
                flagged.push((b, ip));
                let next: Vec<String> = next_letters(words, w, p)
                    .iter()
                    .map(Ev::to_string)
                    .collect();
                errs.push(LintError::Protocol {
                    func: ctx.func.name.clone(),
                    core,
                    block: b,
                    ip,
                    expected: if next.is_empty() {
                        "no further event: the word is whole".to_string()
                    } else {
                        next.join(" or ")
                    },
                    found,
                });
            }
            continue;
        }
        for &s in ctx.cfg.succs(b) {
            stack.push((s, w, p));
        }
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

/// Boundary CFG shape: the recorded skeleton is wired as documented,
/// recovery blocks are sound squash targets, and resteers point at them.
fn lint_boundary_shape(
    program: &Program,
    spice: &SpiceParallelLoop,
    ctxs: &[FuncCtx<'_>],
    errs: &mut Vec<LintError>,
) {
    let ctx = &ctxs[spice.main.index()];
    let main = ctx.func;
    let s = &spice.shape;

    expect_br(
        main,
        s.dispatch,
        s.check,
        "dispatch falls into detection",
        errs,
    );
    expect_cond_br(
        main,
        s.check,
        s.hit,
        s.memo,
        "boundary hit or memoize",
        errs,
    );
    expect_br(main, s.hit, s.chain, "hit enters the merge chain", errs);
    // The latch test: a block inside the instrumented loop (one its header
    // dominates) that branches to the header or to detection is `condbr
    // slow, check, header`, so no back edge skips the work count or the
    // detection it guards.
    let dom = DomTree::new(&ctx.cfg);
    for b in main.block_ids() {
        let succs = ctx.cfg.succs(b);
        let latch = succs.contains(&s.header) || succs.contains(&s.check);
        if latch && dom.dominates(s.header, b) {
            expect_cond_br(
                main,
                b,
                s.check,
                s.header,
                "latch test: detection or the next iteration",
                errs,
            );
        }
    }
    if let Some(serial) = &s.serial {
        expect_cond_br(
            main,
            serial.tail,
            serial.resume,
            s.finish,
            "need_resume runs the rest of the loop alone",
            errs,
        );
        expect_cond_br(
            main,
            serial.resume,
            serial.lean_memo,
            serial.lean,
            "resume enters the lean loop",
            errs,
        );
        expect_br(
            main,
            serial.throttle,
            serial.lean,
            "throttle enters the lean loop",
            errs,
        );
    }
    match func_terminator(main, s.finish) {
        Terminator::Br(_) => {}
        _ => errs.push(LintError::ShapeEdge {
            func: main.name.clone(),
            block: s.finish,
            expected: "br <post-loop code>".to_string(),
        }),
    }

    // Worker recovery blocks are entered only by remote resteer (the
    // contract walks each from there: `spec.abort, ret`). The main thread
    // does not wait for a recovery: the machine delivers each resteer a
    // fixed latency after it issues, in the merge chain's order.
    for w in &spice.workers {
        let wctx = &ctxs[w.func.index()];
        if !wctx.cfg.preds(w.recovery_block).is_empty() {
            errs.push(LintError::RecoveryShape {
                func: wctx.func.name.clone(),
                block: w.recovery_block,
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
