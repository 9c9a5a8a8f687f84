//! The loop front end every Spice backend starts from (paper §4).
//!
//! [`derive_loop_spec`] is the one place Algorithm 1 steps 2–4 are decided —
//! classify the target loop's live-ins, remove the reductions, value-
//! speculate the rest (the set `S`) — together with the applicability
//! conditions of the transformation ([`SpecError`]) and the §4 live-out
//! merge contract ([`LiveOutGroup`]): what a chunk hands back when it
//! commits, in which order, and how the main thread folds it. The simulator
//! path (`spice-core`'s transformation) generates code from the resulting
//! [`SpiceLoopSpec`]; the native-thread path (`spice-runtime`) interprets
//! the same spec, so the two cannot disagree about which loop is chunkable,
//! which registers are speculated, or how partial results combine.
//!
//! [`speculated_set`] is the set-`S` step on its own, for the value profiler
//! (paper §6), which applies it to every loop of a program and has no use
//! for a preheader or a single exit.

use crate::cfg::Cfg;
use crate::dataflow::{classify_loop_dependences, DependenceClass, LoopDependence};
use crate::dom::DomTree;
use crate::exec::ConflictPolicy;
use crate::function::{Function, Program};
use crate::liveness::{loop_live_ins, Liveness, LoopLiveIns};
use crate::loops::{Loop, LoopForest};
use crate::reduction::{detect_reductions, Reduction, ReductionKind};
use crate::types::{BlockId, FuncId, Reg};

/// Backend-neutral description of a Spice-parallelizable loop: everything a
/// backend needs to chunk the iteration space, start speculative chunks from
/// predicted live-ins, and recombine partial results — whether it generates
/// code for that (the transformation) or interprets it (the native runtime).
#[derive(Debug, Clone)]
pub struct SpiceLoopSpec {
    /// Function containing the loop.
    pub func: FuncId,
    /// The loop's header block — the per-iteration chunk boundary.
    pub header: BlockId,
    /// The unique preheader block, host of the per-invocation setup code.
    pub preheader: BlockId,
    /// All blocks of the loop, sorted.
    pub blocks: Vec<BlockId>,
    /// Latch blocks (sources of back edges).
    pub latches: Vec<BlockId>,
    /// The single exit edge `(from, to)`.
    pub exit_edge: (BlockId, BlockId),
    /// Loop-carried live-ins that must be value-speculated
    /// (`carried − reductions`), in ascending register order — the set `S`
    /// of Algorithm 1, the "cursor" registers a chunk starts from.
    pub cursors: Vec<Reg>,
    /// Recognised reductions (removed from `S` by the reduction
    /// transformation; speculative chunks start them at their identity).
    pub reductions: Vec<Reduction>,
    /// Invariant live-ins (safe to read from the sequential entry state).
    pub invariant: Vec<Reg>,
    /// What a committed chunk hands back and how the main thread folds it,
    /// in communication order: the reductions by accumulator register, then
    /// the remaining live-outs ∪ cursors, ascending.
    pub liveouts: Vec<LiveOutGroup>,
}

impl SpiceLoopSpec {
    /// The static dependence pre-screen of the loop in `program` this spec
    /// was derived from: its store/load pairs classified from
    /// base-pointer/offset chains. Advisory input to [`ConflictPolicy`]
    /// selection — strictly observational, and computed on demand because
    /// neither backend's execution reads it.
    #[must_use]
    pub fn dependence(&self, program: &Program) -> LoopDependence {
        let f = program.func(self.func);
        classify_loop_dependences(f, &Cfg::new(f), &self.blocks)
    }

    /// The [`ConflictPolicy`] the pre-screen recommends: detection can be
    /// skipped only when every cross-chunk store/load pair is provably
    /// disjoint. The pre-screen never overrides what a workload declares.
    #[must_use]
    pub fn recommended_policy(&self, program: &Program) -> ConflictPolicy {
        match self.dependence(program).class {
            DependenceClass::ProvablyDisjoint => ConflictPolicy::AssumeIndependent,
            DependenceClass::Unknown | DependenceClass::ProvablyDependent => ConflictPolicy::Detect,
        }
    }
}

/// How the main thread combines one group of live-out values handed back by
/// a committed chunk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CombineKind {
    /// Accumulate with a reduction operation; the first register of the group
    /// is the accumulator, the rest are payloads selected under the same
    /// condition (argmin/argmax).
    Reduction(ReductionKind),
    /// Overwrite the main thread's value (later chunks overwrite earlier
    /// ones, so the last committed chunk — the one that reached the real
    /// loop exit, or the boundary the main thread resumes from — wins).
    Overwrite,
}

/// One group of live-out registers a committed chunk hands to the main
/// thread, in the loop function's register numbering.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LiveOutGroup {
    /// Registers of the group (accumulator first for reductions).
    pub regs: Vec<Reg>,
    /// How the group combines.
    pub kind: CombineKind,
}

/// Why a loop cannot be Spice-parallelized — the applicability conditions of
/// the transformation (paper §4), the same on every backend.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpecError {
    /// The function has no loop (with the requested header).
    NoSuchLoop,
    /// The loop has no unique preheader block to host the per-invocation
    /// setup code.
    NoPreheader,
    /// The loop exits through more than one edge.
    MultipleExits,
    /// Every loop-carried live-in is a reduction, so there is nothing to
    /// value-speculate — the loop should be parallelized as DOALL /
    /// reduction instead.
    NothingToSpeculate,
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            SpecError::NoSuchLoop => "no loop with the requested header",
            SpecError::NoPreheader => "loop has no unique preheader",
            SpecError::MultipleExits => "loop has more than one exit edge",
            SpecError::NothingToSpeculate => {
                "all loop-carried live-ins are reductions; nothing to speculate"
            }
        })
    }
}

impl std::error::Error for SpecError {}

/// Algorithm 1 steps 2–4 for one loop: the live-in classification, the
/// recognised reductions, and the set `S` — the carried live-ins no
/// reduction covers, ascending.
#[must_use]
pub fn speculated_set(
    func: &Function,
    cfg: &Cfg,
    liveness: &Liveness,
    l: &Loop,
) -> (LoopLiveIns, Vec<Reduction>, Vec<Reg>) {
    let live = loop_live_ins(func, cfg, liveness, l);
    let reductions = detect_reductions(func, l, &live);
    let covered = reductions.covered_regs();
    let speculated = live
        .carried
        .iter()
        .copied()
        .filter(|r| !covered.contains(r))
        .collect();
    (live, reductions.reductions, speculated)
}

/// Derives the [`SpiceLoopSpec`] of the loop of `func` whose header is
/// `header`, or of the largest top-level loop when `header` is `None`.
///
/// # Errors
///
/// Returns the applicability condition that failed.
pub fn derive_loop_spec(
    program: &Program,
    func: FuncId,
    header: Option<BlockId>,
) -> Result<SpiceLoopSpec, SpecError> {
    let f = program.func(func);
    let cfg = Cfg::new(f);
    let dom = DomTree::new(&cfg);
    let forest = LoopForest::new(f, &cfg, &dom);
    let loop_id = forest.target_loop(header).ok_or(SpecError::NoSuchLoop)?;
    let l = forest.get(loop_id);
    let preheader = forest
        .preheader(loop_id, f, &cfg)
        .ok_or(SpecError::NoPreheader)?;
    let &[exit_edge] = l.exits.as_slice() else {
        return Err(SpecError::MultipleExits);
    };

    let (live, reductions, cursors) = speculated_set(f, &cfg, &Liveness::new(f, &cfg), l);
    if cursors.is_empty() {
        return Err(SpecError::NothingToSpeculate);
    }
    Ok(SpiceLoopSpec {
        func,
        header: l.header,
        preheader,
        latches: l.latches.clone(),
        exit_edge,
        liveouts: build_liveout_groups(&reductions, &live.live_outs, &cursors),
        blocks: l.blocks_sorted(),
        cursors,
        reductions,
        invariant: live.invariant,
    })
}

/// Builds the canonical live-out communication order.
fn build_liveout_groups(
    reductions: &[Reduction],
    live_outs: &[Reg],
    cursors: &[Reg],
) -> Vec<LiveOutGroup> {
    let mut reductions: Vec<&Reduction> = reductions.iter().collect();
    reductions.sort_by_key(|r| r.reg);
    let mut groups: Vec<LiveOutGroup> = reductions
        .iter()
        .map(|red| LiveOutGroup {
            regs: std::iter::once(red.reg)
                .chain(red.payloads.iter().copied())
                .collect(),
            kind: CombineKind::Reduction(red.kind),
        })
        .collect();
    let mut rest: Vec<Reg> = live_outs
        .iter()
        .chain(cursors)
        .copied()
        .filter(|r| !groups.iter().any(|g| g.regs.contains(r)))
        .collect();
    rest.sort();
    rest.dedup();
    groups.extend(rest.into_iter().map(|r| LiveOutGroup {
        regs: vec![r],
        kind: CombineKind::Overwrite,
    }));
    groups
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::fixtures::list_min_program;
    use crate::{BinOp, Operand};

    #[test]
    fn otter_loop_analysis_isolates_pointer_as_speculated() {
        // The paper's Figure 1(a) loop (`find_lightest_cl` from otter) with
        // its min-with-payload reduction.
        let (p, f, ..) = list_min_program(8);
        let a = derive_loop_spec(&p, f, None).unwrap();
        let c = Reg(1);
        assert_eq!(a.cursors, vec![c]);
        assert_eq!(a.reductions.len(), 1);
        assert_eq!(a.preheader, BlockId(1));
        assert_eq!(a.header, BlockId(2));
        assert_eq!(a.exit_edge.1, BlockId(4));
        assert_eq!(a.latches, vec![BlockId(3)]);
        // The fold contract: the min reduction with its argmin payload
        // first, then the pointer.
        let (wm, cm) = (a.reductions[0].reg, a.reductions[0].payloads[0]);
        assert_eq!(
            a.liveouts,
            vec![
                LiveOutGroup {
                    regs: vec![wm, cm],
                    kind: CombineKind::Reduction(ReductionKind::Min),
                },
                LiveOutGroup {
                    regs: vec![c],
                    kind: CombineKind::Overwrite,
                },
            ]
        );
    }

    #[test]
    fn otter_loop_prescreen_is_provably_disjoint() {
        // The loop body only loads (the result store sits in the exit block,
        // outside the loop), so the pre-screen proves there is no
        // cross-chunk RAW dependence and recommends skipping detection.
        let (p, f, ..) = list_min_program(8);
        let a = derive_loop_spec(&p, f, None).unwrap();
        let dependence = a.dependence(&p);
        assert_eq!(dependence.class, DependenceClass::ProvablyDisjoint);
        assert_eq!(dependence.stores, 0);
        assert!(dependence.loads > 0);
        assert_eq!(a.recommended_policy(&p), ConflictPolicy::AssumeIndependent);
    }

    #[test]
    fn store_to_chased_pointer_is_unknown() {
        // Same loop shape, but the body also writes through the chased
        // pointer: the base is a load result, so the pre-screen must stay
        // conservative and keep detection on.
        let mut b = FunctionBuilder::new("chase_store");
        let c = b.param();
        let pre = b.new_block();
        let header = b.new_block();
        let body = b.new_block();
        let exit = b.new_block();
        b.br(pre);
        b.switch_to(pre);
        b.br(header);
        b.switch_to(header);
        let done = b.binop(BinOp::Eq, c, 0i64);
        b.cond_br(done, exit, body);
        b.switch_to(body);
        let w = b.load(c, 0);
        let w2 = b.binop(BinOp::Add, w, 1i64);
        b.store(w2, c, 0);
        let next = b.load(c, 1);
        b.copy_into(c, next);
        b.br(header);
        b.switch_to(exit);
        b.ret(Some(Operand::Reg(c)));
        let mut p = Program::new();
        let f = p.add_func(b.finish());
        let a = derive_loop_spec(&p, f, Some(header)).unwrap();
        assert_eq!(a.dependence(&p).class, DependenceClass::Unknown);
        assert!(a.dependence(&p).stores > 0);
        assert_eq!(a.recommended_policy(&p), ConflictPolicy::Detect);
    }

    #[test]
    fn missing_loop_is_rejected() {
        let mut b = FunctionBuilder::new("noloop");
        b.ret(None);
        let mut p = Program::new();
        let f = p.add_func(b.finish());
        for header in [None, Some(BlockId(0))] {
            assert_eq!(
                derive_loop_spec(&p, f, header).unwrap_err(),
                SpecError::NoSuchLoop
            );
        }
    }

    #[test]
    fn loop_without_preheader_is_rejected() {
        // Two predecessors of the header from outside the loop.
        let mut b = FunctionBuilder::new("nopre");
        let x = b.param();
        let p1 = b.new_block();
        let p2 = b.new_block();
        let header = b.new_block();
        let exit = b.new_block();
        b.cond_br(x, p1, p2);
        b.switch_to(p1);
        b.br(header);
        b.switch_to(p2);
        b.br(header);
        b.switch_to(header);
        let c = b.binop(BinOp::Sub, x, 1i64);
        b.copy_into(x, c);
        b.cond_br(x, header, exit);
        b.switch_to(exit);
        b.ret(None);
        let mut p = Program::new();
        let f = p.add_func(b.finish());
        assert_eq!(
            derive_loop_spec(&p, f, Some(header)).unwrap_err(),
            SpecError::NoPreheader
        );
    }

    #[test]
    fn reduction_only_loop_is_rejected() {
        // `while sum < n { sum += 3 }`: sum is read by the exit condition,
        // so it is NOT a pure reduction — the loop is accepted, with sum as
        // the speculated live-in.
        let mut b = FunctionBuilder::new("reduce_only");
        let n = b.param();
        let sum = b.copy(0i64);
        let pre = b.new_block();
        let header = b.new_block();
        let body = b.new_block();
        let exit = b.new_block();
        b.br(pre);
        b.switch_to(pre);
        b.br(header);
        b.switch_to(header);
        let done = b.binop(BinOp::Ge, sum, n);
        b.cond_br(done, exit, body);
        b.switch_to(body);
        let s2 = b.binop(BinOp::Add, sum, 3i64);
        b.copy_into(sum, s2);
        b.br(header);
        b.switch_to(exit);
        b.ret(Some(Operand::Reg(sum)));
        let mut p = Program::new();
        let f = p.add_func(b.finish());
        let a = derive_loop_spec(&p, f, Some(header)).unwrap();
        assert_eq!(a.cursors, vec![sum]);
    }

    #[test]
    fn applicability_messages_are_nonempty() {
        for e in [
            SpecError::NoSuchLoop,
            SpecError::NoPreheader,
            SpecError::MultipleExits,
            SpecError::NothingToSpeculate,
        ] {
            assert!(!e.to_string().is_empty());
        }
    }
}
