//! Loop analysis for the Spice transformation.
//!
//! Bundles the IR analyses (natural loops, liveness, reduction detection)
//! into the per-loop summary that Algorithm 1 of the paper starts from:
//! the inter-iteration live-ins, the subset removable by reduction
//! transformations, and the remainder that must be value-speculated.

use spice_ir::cfg::Cfg;
use spice_ir::dataflow::{classify_loop_dependences, DependenceClass, LoopDependence};
use spice_ir::dom::DomTree;
use spice_ir::exec::ConflictPolicy;
use spice_ir::liveness::{loop_live_ins, Liveness, LoopLiveIns};
use spice_ir::loops::{Loop, LoopForest, LoopId};
use spice_ir::reduction::{detect_reductions, ReductionSet};
use spice_ir::{BlockId, FuncId, Program, Reg};

/// Why a loop cannot be Spice-parallelized.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Applicability {
    /// The loop can be transformed.
    Ok,
    /// The function has no loop with the requested header.
    NoSuchLoop,
    /// The loop has no unique preheader block to host the per-invocation
    /// setup code.
    NoPreheader,
    /// The loop exits through more than one edge; the transformation
    /// currently requires a single exit edge.
    MultipleExits,
    /// Every loop-carried live-in is a reduction, so there is nothing to
    /// value-speculate — the loop should be parallelized as DOALL /
    /// reduction instead.
    NothingToSpeculate,
    /// Fewer than two threads were requested.
    TooFewThreads,
}

impl std::fmt::Display for Applicability {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Applicability::Ok => f.write_str("loop is Spice-parallelizable"),
            Applicability::NoSuchLoop => f.write_str("no loop with the requested header"),
            Applicability::NoPreheader => f.write_str("loop has no unique preheader"),
            Applicability::MultipleExits => f.write_str("loop has more than one exit edge"),
            Applicability::NothingToSpeculate => {
                f.write_str("all loop-carried live-ins are reductions; nothing to speculate")
            }
            Applicability::TooFewThreads => f.write_str("at least two threads are required"),
        }
    }
}

/// Everything the transformation needs to know about the target loop.
#[derive(Debug, Clone)]
pub struct LoopAnalysis {
    /// Function containing the loop.
    pub func: FuncId,
    /// The loop's header block.
    pub header: BlockId,
    /// All blocks of the loop.
    pub blocks: Vec<BlockId>,
    /// Latch blocks (sources of back edges).
    pub latches: Vec<BlockId>,
    /// The single exit edge `(from, to)`.
    pub exit_edge: (BlockId, BlockId),
    /// The preheader block.
    pub preheader: BlockId,
    /// Live-in / live-out classification.
    pub live: LoopLiveIns,
    /// Recognised reductions.
    pub reductions: ReductionSet,
    /// Loop-carried live-ins that must be value-speculated
    /// (`carried − reductions`), in ascending register order. This is the
    /// set `S` of Algorithm 1.
    pub speculated: Vec<Reg>,
    /// The static dependence pre-screen: the loop's store/load pairs
    /// classified from base-pointer/offset chains. Advisory input to
    /// [`ConflictPolicy`] selection — strictly observational, never changes
    /// the transform's output.
    pub dependence: LoopDependence,
}

impl LoopAnalysis {
    /// Analyses the loop of `func` whose header is `header`.
    ///
    /// # Errors
    ///
    /// Returns the reason the loop cannot be transformed.
    pub fn analyze(
        program: &Program,
        func: FuncId,
        header: BlockId,
    ) -> Result<LoopAnalysis, Applicability> {
        let f = program.func(func);
        let cfg = Cfg::new(f);
        let dom = DomTree::new(&cfg);
        let forest = LoopForest::new(f, &cfg, &dom);
        let loop_id: LoopId = forest
            .loop_with_header(header)
            .ok_or(Applicability::NoSuchLoop)?;
        let l: &Loop = forest.get(loop_id);

        let preheader = forest
            .preheader(loop_id, f, &cfg)
            .ok_or(Applicability::NoPreheader)?;
        if l.exits.len() != 1 {
            return Err(Applicability::MultipleExits);
        }
        let exit_edge = l.exits[0];

        let liveness = Liveness::new(f, &cfg);
        let live = loop_live_ins(f, &cfg, &liveness, l);
        let reductions = detect_reductions(f, l, &live);
        let covered = reductions.covered_regs();
        let speculated: Vec<Reg> = live
            .carried
            .iter()
            .copied()
            .filter(|r| !covered.contains(r))
            .collect();
        if speculated.is_empty() {
            return Err(Applicability::NothingToSpeculate);
        }

        let blocks = l.blocks_sorted();
        let dependence = classify_loop_dependences(f, &cfg, &blocks);

        Ok(LoopAnalysis {
            func,
            header,
            blocks,
            latches: l.latches.clone(),
            exit_edge,
            preheader,
            live,
            reductions,
            speculated,
            dependence,
        })
    }

    /// Finds the outermost loop of `func` and analyses it — convenience for
    /// workloads whose target loop is the only/top loop of the function.
    ///
    /// # Errors
    ///
    /// Returns the reason no loop could be analysed.
    pub fn analyze_outermost(
        program: &Program,
        func: FuncId,
    ) -> Result<LoopAnalysis, Applicability> {
        let f = program.func(func);
        let forest = LoopForest::of(f);
        let top = forest.top_level();
        let mut best: Option<(usize, BlockId)> = None;
        for id in top {
            let l = forest.get(id);
            let size = l.blocks.len();
            if best.is_none_or(|(s, _)| size > s) {
                best = Some((size, l.header));
            }
        }
        match best {
            Some((_, header)) => LoopAnalysis::analyze(program, func, header),
            None => Err(Applicability::NoSuchLoop),
        }
    }

    /// Number of live-in words one speculated-values-array row holds.
    #[must_use]
    pub fn spec_width(&self) -> usize {
        self.speculated.len()
    }

    /// The [`ConflictPolicy`] the static dependence pre-screen recommends:
    /// detection can be skipped only when every cross-chunk store/load pair
    /// is provably disjoint. Callers that want to *weaken* a declared
    /// `Detect` policy should consult this; the pre-screen itself never
    /// overrides what a workload declares.
    #[must_use]
    pub fn recommended_policy(&self) -> ConflictPolicy {
        match self.dependence.class {
            DependenceClass::ProvablyDisjoint => ConflictPolicy::AssumeIndependent,
            DependenceClass::Unknown | DependenceClass::ProvablyDependent => ConflictPolicy::Detect,
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use spice_ir::builder::FunctionBuilder;
    use spice_ir::{BinOp, Operand};

    /// The paper's Figure 1(a) loop (`find_lightest_cl` from otter) with its
    /// min-with-payload reduction; the transform's tests build on it too.
    pub(crate) fn otter_program() -> (Program, FuncId) {
        let mut b = FunctionBuilder::new("find_lightest");
        let c = b.param();
        let wm = b.param();
        let cm = b.param();
        let out_addr = b.param();
        let pre = b.new_labeled_block("preheader");
        let header = b.new_labeled_block("header");
        let body = b.new_labeled_block("body");
        let exit = b.new_labeled_block("exit");
        b.br(pre);
        b.switch_to(pre);
        b.br(header);
        b.switch_to(header);
        let done = b.binop(BinOp::Eq, c, 0i64);
        b.cond_br(done, exit, body);
        b.switch_to(body);
        let w = b.load(c, 0);
        let better = b.binop(BinOp::Lt, w, wm);
        let new_wm = b.select(better, w, wm);
        b.copy_into(wm, new_wm);
        let new_cm = b.select(better, c, cm);
        b.copy_into(cm, new_cm);
        let next = b.load(c, 1);
        b.copy_into(c, next);
        b.br(header);
        b.switch_to(exit);
        b.store(cm, out_addr, 0);
        b.ret(Some(Operand::Reg(wm)));
        let mut p = Program::new();
        let f = p.add_func(b.finish());
        (p, f)
    }

    #[test]
    fn otter_loop_analysis_isolates_pointer_as_speculated() {
        let (p, f) = otter_program();
        let a = LoopAnalysis::analyze_outermost(&p, f).unwrap();
        let func = p.func(f);
        let c = func.params[0];
        assert_eq!(a.speculated, vec![c]);
        assert_eq!(a.spec_width(), 1);
        assert_eq!(a.reductions.reductions.len(), 1);
        assert_eq!(a.preheader, BlockId(1));
        assert_eq!(a.header, BlockId(2));
        assert_eq!(a.exit_edge.1, BlockId(4));
        assert_eq!(a.latches, vec![BlockId(3)]);
    }

    #[test]
    fn otter_loop_prescreen_is_provably_disjoint() {
        // The loop body only loads (the result store sits in the exit block,
        // outside the loop), so the pre-screen proves there is no
        // cross-chunk RAW dependence and recommends skipping detection.
        let (p, f) = otter_program();
        let a = LoopAnalysis::analyze_outermost(&p, f).unwrap();
        assert_eq!(a.dependence.class, DependenceClass::ProvablyDisjoint);
        assert_eq!(a.dependence.stores, 0);
        assert!(a.dependence.loads > 0);
        assert_eq!(a.recommended_policy(), ConflictPolicy::AssumeIndependent);
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
        let a = LoopAnalysis::analyze(&p, f, header).unwrap();
        assert_eq!(a.dependence.class, DependenceClass::Unknown);
        assert!(a.dependence.stores > 0);
        assert_eq!(a.recommended_policy(), ConflictPolicy::Detect);
    }

    #[test]
    fn missing_loop_is_rejected() {
        let mut b = FunctionBuilder::new("noloop");
        b.ret(None);
        let mut p = Program::new();
        let f = p.add_func(b.finish());
        assert_eq!(
            LoopAnalysis::analyze_outermost(&p, f).unwrap_err(),
            Applicability::NoSuchLoop
        );
        assert_eq!(
            LoopAnalysis::analyze(&p, f, BlockId(0)).unwrap_err(),
            Applicability::NoSuchLoop
        );
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
            LoopAnalysis::analyze(&p, f, header).unwrap_err(),
            Applicability::NoPreheader
        );
    }

    #[test]
    fn reduction_only_loop_is_rejected() {
        // for i in 0..n { sum += A[i] } — i is used by the exit test so it is
        // speculated... build it with i as the ONLY non-reduction and verify
        // acceptance; then a pure accumulate-forever loop must be rejected.
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
        // sum is read by the exit condition, so it is NOT a pure reduction —
        // this loop is accepted (sum becomes the speculated live-in).
        let s2 = b.binop(BinOp::Add, sum, 3i64);
        b.copy_into(sum, s2);
        b.br(header);
        b.switch_to(exit);
        b.ret(Some(Operand::Reg(sum)));
        let mut p = Program::new();
        let f = p.add_func(b.finish());
        let a = LoopAnalysis::analyze(&p, f, header).unwrap();
        assert_eq!(a.speculated, vec![sum]);
    }

    #[test]
    fn applicability_messages_are_nonempty() {
        for a in [
            Applicability::Ok,
            Applicability::NoSuchLoop,
            Applicability::NoPreheader,
            Applicability::MultipleExits,
            Applicability::NothingToSpeculate,
            Applicability::TooFewThreads,
        ] {
            assert!(!a.to_string().is_empty());
        }
    }
}
