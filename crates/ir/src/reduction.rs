//! Reduction-candidate detection.
//!
//! The Spice transformation removes loop-carried live-ins that can be handled
//! by a classical reduction transformation (paper §4: "Those live-ins in this
//! set that can be subjected to reduction transformations such as sum
//! reduction or MIN/MAX reduction do not require prediction").
//!
//! Two shapes are recognised:
//!
//! * **binop accumulators** — `acc = acc ⊕ x` (directly or through a
//!   temporary) with `⊕` associative and commutative,
//! * **select-based MIN/MAX** — `better = x < acc; acc = select(better, x,
//!   acc)`, optionally with *payload* registers updated under the same
//!   condition (`argmin`/`argmax`, like the `cm` pointer that accompanies the
//!   `wm` weight in the paper's Figure 1 loop).

use std::collections::{HashMap, HashSet};

use crate::function::Function;
use crate::inst::Inst;
use crate::liveness::LoopLiveIns;
use crate::loops::Loop;
use crate::types::{BinOp, Operand, Reg};

/// The combining operation of a recognised reduction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReductionKind {
    /// Accumulation with an associative/commutative [`BinOp`]
    /// (`Add`, `Mul`, `And`, `Or`, `Xor`, `Min`, `Max`).
    Binop(BinOp),
    /// Select-based minimum (`acc = x < acc ? x : acc`).
    Min,
    /// Select-based maximum (`acc = x > acc ? x : acc`).
    Max,
}

impl ReductionKind {
    /// Neutral element used to initialize speculative threads' accumulators.
    #[must_use]
    pub fn identity(self) -> i64 {
        match self {
            ReductionKind::Binop(op) => op.reduction_identity().unwrap_or(0),
            ReductionKind::Min => i64::MAX,
            ReductionKind::Max => i64::MIN,
        }
    }
}

/// A recognised reduction over one loop-carried register.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reduction {
    /// The accumulator register.
    pub reg: Reg,
    /// How partial results combine.
    pub kind: ReductionKind,
    /// Payload registers that follow the accumulator (argmin/argmax). Only
    /// populated for [`ReductionKind::Min`] / [`ReductionKind::Max`].
    pub payloads: Vec<Reg>,
}

/// All reductions recognised in one loop.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReductionSet {
    /// The recognised reductions.
    pub reductions: Vec<Reduction>,
}

impl ReductionSet {
    /// Registers covered by some reduction (accumulators and payloads).
    #[must_use]
    pub fn covered_regs(&self) -> HashSet<Reg> {
        let mut s = HashSet::new();
        for r in &self.reductions {
            s.insert(r.reg);
            s.extend(r.payloads.iter().copied());
        }
        s
    }

    /// Looks up the reduction whose accumulator is `reg`.
    #[must_use]
    pub fn for_reg(&self, reg: Reg) -> Option<&Reduction> {
        self.reductions.iter().find(|r| r.reg == reg)
    }
}

/// Detects reduction candidates among the carried live-ins of `l`.
///
/// Detection is conservative: a carried register is only reported as a
/// reduction if *every* use of it inside the loop participates in the
/// accumulation pattern, so rewriting it is always sound.
#[must_use]
pub fn detect_reductions(func: &Function, l: &Loop, live: &LoopLiveIns) -> ReductionSet {
    let carried: HashSet<Reg> = live.carried.iter().copied().collect();

    // Gather, per register, the instructions (block-local indices are not
    // needed — patterns are matched structurally) defining and using it
    // inside the loop.
    let mut defs: HashMap<Reg, Vec<&Inst>> = HashMap::new();
    let mut use_count: HashMap<Reg, usize> = HashMap::new();
    for &b in &l.blocks {
        let blk = func.block(b);
        for inst in &blk.insts {
            if let Some(d) = inst.def() {
                defs.entry(d).or_default().push(inst);
            }
            for u in inst.uses() {
                *use_count.entry(u).or_insert(0) += 1;
            }
        }
        for u in blk.terminator.uses() {
            *use_count.entry(u).or_insert(0) += 1;
        }
    }

    let single_def = |r: Reg| -> Option<&Inst> {
        match defs.get(&r) {
            Some(v) if v.len() == 1 => Some(v[0]),
            _ => None,
        }
    };

    let mut out = ReductionSet::default();
    let mut payload_candidates: Vec<(Reg, Reg)> = Vec::new(); // (payload reg, cond reg)

    for &acc in &live.carried {
        // The accumulator must be defined exactly once in the loop.
        let Some(def) = single_def(acc) else { continue };
        match def {
            // Direct form: acc = acc ⊕ x  or  acc = x ⊕ acc.
            Inst::Binary { op, dst, lhs, rhs } if *dst == acc && op.is_reduction_op() => {
                let reads_self = *lhs == Operand::Reg(acc) || *rhs == Operand::Reg(acc);
                // The only use of acc inside the loop must be this update.
                if reads_self && use_count.get(&acc).copied().unwrap_or(0) == 1 {
                    out.reductions.push(Reduction {
                        reg: acc,
                        kind: ReductionKind::Binop(*op),
                        payloads: Vec::new(),
                    });
                }
            }
            // Through a temporary: t = acc ⊕ x ; acc = t.
            Inst::Copy {
                dst,
                src: Operand::Reg(t),
            } if *dst == acc => {
                let Some(tdef) = single_def(*t) else { continue };
                match tdef {
                    Inst::Binary {
                        op,
                        dst: td,
                        lhs,
                        rhs,
                    } if td == t && op.is_reduction_op() => {
                        let reads_self = *lhs == Operand::Reg(acc) || *rhs == Operand::Reg(acc);
                        // acc used only in the binop; t used only in the copy.
                        if reads_self
                            && use_count.get(&acc).copied().unwrap_or(0) == 1
                            && use_count.get(t).copied().unwrap_or(0) == 1
                        {
                            out.reductions.push(Reduction {
                                reg: acc,
                                kind: ReductionKind::Binop(*op),
                                payloads: Vec::new(),
                            });
                        }
                    }
                    // Select-based min/max: t = select(cond, x, acc);
                    // cond = (x < acc) or similar.
                    Inst::Select {
                        dst: td,
                        cond: Operand::Reg(cond),
                        if_true,
                        if_false,
                    } if td == t && *if_false == Operand::Reg(acc) => {
                        let Some(cdef) = single_def(*cond) else {
                            continue;
                        };
                        let Inst::Binary { op, lhs, rhs, .. } = cdef else {
                            continue;
                        };
                        // Recognise x REL acc (or acc REL x) with x being the
                        // selected new value.
                        let x = *if_true;
                        let kind = match (op, lhs, rhs) {
                            (BinOp::Lt | BinOp::Le, l, r) if *l == x && *r == Operand::Reg(acc) => {
                                Some(ReductionKind::Min)
                            }
                            (BinOp::Gt | BinOp::Ge, l, r) if *l == x && *r == Operand::Reg(acc) => {
                                Some(ReductionKind::Max)
                            }
                            (BinOp::Gt | BinOp::Ge, l, r) if *r == x && *l == Operand::Reg(acc) => {
                                Some(ReductionKind::Min)
                            }
                            (BinOp::Lt | BinOp::Le, l, r) if *r == x && *l == Operand::Reg(acc) => {
                                Some(ReductionKind::Max)
                            }
                            _ => None,
                        };
                        let Some(kind) = kind else { continue };
                        // acc is used in the compare, the select and nothing
                        // else; t only in the copy.
                        if use_count.get(&acc).copied().unwrap_or(0) == 2
                            && use_count.get(t).copied().unwrap_or(0) == 1
                        {
                            // Record the condition register so payloads can
                            // attach to this reduction.
                            out.reductions.push(Reduction {
                                reg: acc,
                                kind,
                                payloads: Vec::new(),
                            });
                            payload_candidates.push((acc, *cond));
                        }
                    }
                    _ => {}
                }
            }
            _ => {}
        }
    }

    // Attach payloads: carried registers whose single definition is
    // `p = copy(select(cond, y, p))` with `cond` the condition register of a
    // recognised min/max reduction and whose only use is in that select.
    for &p in &live.carried {
        if out.covered_regs().contains(&p) {
            continue;
        }
        let Some(def) = single_def(p) else { continue };
        let Inst::Copy {
            dst,
            src: Operand::Reg(t),
        } = def
        else {
            continue;
        };
        if *dst != p {
            continue;
        }
        let Some(tdef) = single_def(*t) else { continue };
        let Inst::Select {
            dst: td,
            cond: Operand::Reg(cond),
            if_false,
            ..
        } = tdef
        else {
            continue;
        };
        if td != t || *if_false != Operand::Reg(p) {
            continue;
        }
        if use_count.get(&p).copied().unwrap_or(0) != 1
            || use_count.get(t).copied().unwrap_or(0) != 1
        {
            continue;
        }
        if let Some(&(acc, _)) = payload_candidates.iter().find(|&&(_, c)| c == *cond) {
            if let Some(red) = out.reductions.iter_mut().find(|r| r.reg == acc) {
                red.payloads.push(p);
            }
        }
    }

    let _ = carried;
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::cfg::Cfg;
    use crate::liveness::{loop_live_ins, Liveness};
    use crate::loops::LoopForest;
    use crate::types::Operand;

    fn analyze(f: &Function) -> (ReductionSet, LoopLiveIns) {
        let cfg = Cfg::new(f);
        let live = Liveness::new(f, &cfg);
        let forest = LoopForest::of(f);
        let (_, l) = forest.iter().next().expect("function must have a loop");
        let lli = loop_live_ins(f, &cfg, &live, l);
        (detect_reductions(f, l, &lli), lli)
    }

    /// sum accumulation through a temporary
    #[test]
    fn sum_reduction_detected() {
        let mut b = FunctionBuilder::new("sum");
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
        let (reds, _) = analyze(&f);
        let red = reds.for_reg(sum).expect("sum should be a reduction");
        assert_eq!(red.kind, ReductionKind::Binop(BinOp::Add));
        assert!(red.payloads.is_empty());
        // `i` is NOT reported: it is read by the exit condition as well as by
        // its own increment, so rewriting it as a reduction would be unsound.
        assert!(reds.for_reg(i).is_none());
    }

    /// The paper's Figure 1(a): wm/cm must be recognised as MIN with payload.
    #[test]
    fn min_with_payload_detected() {
        let mut b = FunctionBuilder::new("find_lightest");
        let c = b.param();
        let wm = b.param();
        let cm = b.param();
        let out_addr = b.param();
        let header = b.new_block();
        let body = b.new_block();
        let exit = b.new_block();
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
        let f = b.finish();

        let (reds, lli) = analyze(&f);
        let red = reds.for_reg(wm).expect("wm should be a MIN reduction");
        assert_eq!(red.kind, ReductionKind::Min);
        assert_eq!(red.payloads, vec![cm]);
        // The pointer c is carried but NOT a reduction — it is exactly the
        // register Spice must value-speculate.
        assert!(reds.for_reg(c).is_none());
        let speculated: Vec<Reg> = lli
            .carried
            .iter()
            .copied()
            .filter(|r| !reds.covered_regs().contains(r))
            .collect();
        assert_eq!(speculated, vec![c]);
    }

    /// A register read by something else in the loop must not be treated as
    /// a reduction even if it is also accumulated.
    #[test]
    fn accumulator_with_extra_use_rejected() {
        let mut b = FunctionBuilder::new("notred");
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
        // sum is both accumulated and used as an address -> not a reduction.
        let v = b.load(sum, 1024);
        let s2 = b.binop(BinOp::Add, sum, v);
        b.copy_into(sum, s2);
        let i2 = b.binop(BinOp::Add, i, 1i64);
        b.copy_into(i, i2);
        b.br(header);
        b.switch_to(exit);
        b.ret(Some(Operand::Reg(sum)));
        let f = b.finish();
        let (reds, _) = analyze(&f);
        assert!(reds.for_reg(sum).is_none());
    }

    #[test]
    fn max_reduction_detected_with_swapped_compare() {
        let mut b = FunctionBuilder::new("maxloop");
        let base = b.param();
        let n = b.param();
        let best = b.copy(i64::MIN);
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
        // best < v  (accumulator on the left) => MAX
        let better = b.binop(BinOp::Lt, best, v);
        let nb = b.select(better, v, best);
        b.copy_into(best, nb);
        let i2 = b.binop(BinOp::Add, i, 1i64);
        b.copy_into(i, i2);
        b.br(header);
        b.switch_to(exit);
        b.ret(Some(Operand::Reg(best)));
        let f = b.finish();
        let (reds, _) = analyze(&f);
        assert_eq!(reds.for_reg(best).map(|r| r.kind), Some(ReductionKind::Max));
    }

    #[test]
    fn identities_are_neutral() {
        assert_eq!(ReductionKind::Binop(BinOp::Add).identity(), 0);
        assert_eq!(ReductionKind::Binop(BinOp::Mul).identity(), 1);
        assert_eq!(ReductionKind::Min.identity(), i64::MAX);
        assert_eq!(ReductionKind::Max.identity(), i64::MIN);
    }
}
