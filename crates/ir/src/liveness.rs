//! Register liveness analysis and loop live-in classification.
//!
//! The Spice transformation needs three register sets for the loop it
//! parallelizes (paper §4, Algorithm 1 steps 2–4):
//!
//! * **inter-iteration (loop-carried) live-ins** — registers live at the loop
//!   header that are also defined inside the loop; these are the candidates
//!   for reduction transformation or value speculation,
//! * **invariant live-ins** — registers live into the loop but never defined
//!   inside it; these only need to be communicated to the worker threads once
//!   per invocation,
//! * **live-outs** — registers defined in the loop that are consumed after
//!   it; the worker threads send these back at the end of an invocation.

use crate::cfg::Cfg;
use crate::dataflow::{solve, Analysis, Direction, RegSet};
use crate::function::Function;
use crate::loops::Loop;
use crate::types::{BlockId, Reg};

/// Per-block liveness sets: the backward instance of the [`dataflow`]
/// framework (fact = the live register set, a [`RegSet`]).
///
/// [`dataflow`]: crate::dataflow
#[derive(Debug, Clone)]
pub struct Liveness {
    live_in: Vec<RegSet>,
    live_out: Vec<RegSet>,
}

struct LiveRegs {
    regs: usize,
}

impl Analysis for LiveRegs {
    type Fact = RegSet;

    fn direction(&self) -> Direction {
        Direction::Backward
    }

    fn boundary_fact(&self, _func: &Function) -> RegSet {
        self.empty_fact()
    }

    fn empty_fact(&self) -> RegSet {
        RegSet::empty(self.regs)
    }

    fn join(&self, into: &mut RegSet, from: &RegSet) -> bool {
        into.union_with(from)
    }

    fn transfer(&self, func: &Function, block: BlockId, live: &mut RegSet) {
        let block = func.block(block);
        for r in block.terminator.uses() {
            live.insert(r);
        }
        let mut uses = Vec::new();
        for inst in block.insts.iter().rev() {
            if let Some(def) = inst.def() {
                live.remove(def);
            }
            uses.clear();
            inst.uses_into(&mut uses);
            for &r in &uses {
                live.insert(r);
            }
        }
    }
}

impl Liveness {
    /// Computes liveness for `func`.
    #[must_use]
    pub fn new(func: &Function, cfg: &Cfg) -> Self {
        // Backward: a block's "input" is the fact at its end.
        let analysis = LiveRegs {
            regs: func.reg_count(),
        };
        let solution = solve(&analysis, func, cfg);
        Liveness {
            live_in: solution.block_out,
            live_out: solution.block_in,
        }
    }

    /// Registers live on entry to `b`.
    #[must_use]
    pub fn live_in(&self, b: BlockId) -> &RegSet {
        &self.live_in[b.index()]
    }

    /// Registers live on exit from `b`.
    #[must_use]
    pub fn live_out(&self, b: BlockId) -> &RegSet {
        &self.live_out[b.index()]
    }
}

/// Classification of the registers flowing into and out of a loop.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoopLiveIns {
    /// Loop-carried live-ins: live at the header and (re)defined inside the
    /// loop. Sorted by register index for determinism.
    pub carried: Vec<Reg>,
    /// Invariant live-ins: live at the header, never defined inside the loop.
    pub invariant: Vec<Reg>,
    /// Registers defined inside the loop that are live after it.
    pub live_outs: Vec<Reg>,
}

/// Computes the loop live-in classification for `l`.
#[must_use]
pub fn loop_live_ins(func: &Function, cfg: &Cfg, liveness: &Liveness, l: &Loop) -> LoopLiveIns {
    let mut defined_in_loop = RegSet::empty(func.reg_count());
    for &b in &l.blocks {
        for inst in &func.block(b).insts {
            if let Some(d) = inst.def() {
                defined_in_loop.insert(d);
            }
        }
    }
    let header_live = liveness.live_in(l.header);

    // `RegSet::iter` ascends, so every list below comes out sorted.
    let (carried, invariant): (Vec<Reg>, Vec<Reg>) = header_live
        .iter()
        .partition(|&r| defined_in_loop.contains(r));

    // Live-outs: defined in the loop and live on entry to some exit target.
    let mut out_set = RegSet::empty(func.reg_count());
    for &(_, target) in &l.exits {
        out_set.union_with(liveness.live_in(target));
    }
    out_set.intersect_with(&defined_in_loop);
    let _ = cfg;
    LoopLiveIns {
        carried,
        invariant,
        live_outs: out_set.iter().collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::dom::DomTree;
    use crate::loops::LoopForest;
    use crate::types::{BinOp, Operand};

    /// The paper's Figure 1(a) loop, lowered by hand:
    ///
    /// ```text
    /// c  = param            (pointer into the list)
    /// wm = param            (current minimum weight)
    /// cm = param            (current minimum node)
    /// header:  if c == 0 goto exit
    /// body:    w = load c.weight
    ///          better = w < wm
    ///          wm = select(better, w, wm)
    ///          cm = select(better, c, cm)
    ///          c  = load c.next
    ///          goto header
    /// exit:    ret wm (cm also live out via store)
    /// ```
    fn otter_like() -> (Function, Reg, Reg, Reg) {
        let mut b = FunctionBuilder::new("find_lightest");
        let c = b.param();
        let wm = b.param();
        let cm = b.param();
        let out_addr = b.param();
        let header = b.new_labeled_block("header");
        let body = b.new_labeled_block("body");
        let exit = b.new_labeled_block("exit");
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
        (b.finish(), c, wm, cm)
    }

    #[test]
    fn liveness_fixed_point_on_loop() {
        let (f, c, wm, cm) = otter_like();
        let cfg = Cfg::new(&f);
        let live = Liveness::new(&f, &cfg);
        let header = BlockId(1);
        assert!(live.live_in(header).contains(c));
        assert!(live.live_in(header).contains(wm));
        assert!(live.live_in(header).contains(cm));
        // The body keeps all three alive as well.
        assert!(live.live_out(BlockId(2)).contains(c));
    }

    #[test]
    fn loop_live_in_classification_matches_paper_example() {
        let (f, c, wm, cm) = otter_like();
        let cfg = Cfg::new(&f);
        let dom = DomTree::new(&cfg);
        let forest = LoopForest::new(&f, &cfg, &dom);
        assert_eq!(forest.len(), 1);
        let live = Liveness::new(&f, &cfg);
        let (_, l) = forest.iter().next().unwrap();
        let lli = loop_live_ins(&f, &cfg, &live, l);
        // c, wm and cm are all loop-carried.
        assert_eq!(lli.carried, {
            let mut v = vec![c, wm, cm];
            v.sort();
            v
        });
        // The output address is only used after the loop, but it stays live
        // *through* the loop (the exit block is a successor of the header),
        // so it is classified as an invariant live-in.
        let out_addr = f.params[3];
        assert_eq!(lli.invariant, vec![out_addr]);
        // wm is returned and cm is stored after the loop: both live-out.
        let mut expect = vec![wm, cm];
        expect.sort();
        assert_eq!(lli.live_outs, expect);
    }

    #[test]
    fn invariant_live_in_detected() {
        // sum += mem[base + i] style loop: `base` is invariant, `sum` and `i`
        // are carried.
        let mut b = FunctionBuilder::new("arraysum");
        let base = b.param();
        let n = b.param();
        let sum = b.copy(0i64);
        let i = b.copy(0i64);
        let header = b.new_block();
        let body = b.new_block();
        let exit = b.new_block();
        b.br(header);
        b.switch_to(header);
        let done = b.binop(BinOp::Ge, i, n);
        b.cond_br(done, exit, body);
        b.switch_to(body);
        let addr = b.binop(BinOp::Add, base, i);
        let v = b.load(addr, 0);
        let s2 = b.binop(BinOp::Add, sum, v);
        b.copy_into(sum, s2);
        let i2 = b.binop(BinOp::Add, i, 1i64);
        b.copy_into(i, i2);
        b.br(header);
        b.switch_to(exit);
        b.ret(Some(Operand::Reg(sum)));
        let f = b.finish();

        let cfg = Cfg::new(&f);
        let live = Liveness::new(&f, &cfg);
        let forest = LoopForest::of(&f);
        let (_, l) = forest.iter().next().unwrap();
        let lli = loop_live_ins(&f, &cfg, &live, l);
        assert!(lli.invariant.contains(&base));
        assert!(lli.invariant.contains(&n));
        assert!(lli.carried.contains(&sum));
        assert!(lli.carried.contains(&i));
        assert_eq!(lli.live_outs, vec![sum]);
    }

    /// The backward solve on a loop whose body returns mid-function: both
    /// `ret` blocks seed the boundary, and the result satisfies the liveness
    /// equations at every block — a fixpoint, not just a plausible answer.
    #[test]
    fn backward_solve_reaches_a_fixpoint_with_a_mid_function_ret() {
        let mut b = FunctionBuilder::new("find");
        let c = b.param();
        let key = b.param();
        let miss = b.param();
        let header = b.new_block();
        let body = b.new_block();
        let found = b.new_block();
        let latch = b.new_block();
        let exit = b.new_block();
        b.br(header);
        b.switch_to(header);
        let done = b.binop(BinOp::Eq, c, 0i64);
        b.cond_br(done, exit, body);
        b.switch_to(body);
        let w = b.load(c, 0);
        let hit = b.binop(BinOp::Eq, w, key);
        b.cond_br(hit, found, latch);
        b.switch_to(found);
        b.ret(Some(Operand::Reg(c)));
        b.switch_to(latch);
        let next = b.load(c, 1);
        b.copy_into(c, next);
        b.br(header);
        b.switch_to(exit);
        b.ret(Some(Operand::Reg(miss)));
        let f = b.finish();
        let cfg = Cfg::new(&f);
        let live = Liveness::new(&f, &cfg);

        let set = |regs: &[Reg]| RegSet::from_regs(f.reg_count(), regs.iter().copied());
        assert_eq!(live.live_in(header), &set(&[c, key, miss]));
        assert_eq!(live.live_in(found), &set(&[c]), "the early ret's use");
        assert_eq!(live.live_in(exit), &set(&[miss]));
        assert_eq!(live.live_out(latch), &set(&[c, key, miss]));
        assert!(live.live_out(found).is_empty() && live.live_out(exit).is_empty());
        for (id, _) in f.iter_blocks() {
            let out = RegSet::from_regs(
                f.reg_count(),
                cfg.succs(id).iter().flat_map(|&s| live.live_in(s).iter()),
            );
            assert_eq!(live.live_out(id), &out, "live_out({id:?})");
            let mut live_in = out;
            let analysis = LiveRegs {
                regs: f.reg_count(),
            };
            analysis.transfer(&f, id, &mut live_in);
            assert_eq!(live.live_in(id), &live_in, "live_in({id:?})");
        }
    }

    #[test]
    fn dead_register_is_not_live() {
        let mut b = FunctionBuilder::new("dead");
        let x = b.param();
        let _unused = b.binop(BinOp::Add, x, 1i64);
        b.ret(Some(Operand::Reg(x)));
        let f = b.finish();
        let cfg = Cfg::new(&f);
        let live = Liveness::new(&f, &cfg);
        assert!(live.live_in(f.entry).contains(x));
        assert!(live.live_out(f.entry).is_empty());
    }
}
