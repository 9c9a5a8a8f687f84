//! A reusable forward/backward dataflow framework over [`Cfg`], plus the
//! instance the speculation-safety tooling is built from — available
//! memory-base expressions — and the static dependence pre-screen that
//! classifies a loop's store/load pairs with it.
//!
//! The framework is deliberately small: facts are per-block values joined at
//! control-flow merges by a caller-supplied `join`, propagated by a
//! caller-supplied block `transfer`, and iterated to a fixpoint on a
//! worklist seeded in (reverse) post order. Programs in this repository are
//! generated kernels of at most a few hundred instructions, so facts are
//! plain hash maps rather than bit vectors — clarity wins over constant
//! factors at this scale.

use std::collections::HashMap;

use crate::cfg::Cfg;
use crate::function::Function;
use crate::inst::Inst;
use crate::types::{BinOp, BlockId, Operand, Reg};

// ---------------------------------------------------------------------------
// The framework.
// ---------------------------------------------------------------------------

/// Direction a dataflow analysis propagates facts in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Facts flow from the entry along control-flow edges.
    Forward,
    /// Facts flow from exits against control-flow edges.
    Backward,
}

/// A dataflow analysis: fact type, lattice operations and block transfer.
pub trait Analysis {
    /// The fact attached to each block boundary.
    type Fact: Clone + PartialEq;

    /// Which way facts propagate.
    fn direction(&self) -> Direction;

    /// The fact at the analysis boundary: the function entry (forward) or
    /// every exit block (backward).
    fn boundary_fact(&self, func: &Function) -> Self::Fact;

    /// The most optimistic fact, used to initialize unvisited blocks.
    fn empty_fact(&self) -> Self::Fact;

    /// Joins `from` into `into`; returns `true` if `into` changed.
    fn join(&self, into: &mut Self::Fact, from: &Self::Fact) -> bool;

    /// Applies one whole block to `fact` (instructions in execution order
    /// for forward analyses, reverse order for backward ones).
    fn transfer(&self, func: &Function, block: BlockId, fact: Self::Fact) -> Self::Fact;
}

/// The fixpoint of a dataflow analysis: one input and one output fact per
/// block, indexed by [`BlockId::index`]. For a backward analysis the "input"
/// is still the fact *before* the block in propagation order, i.e. the fact
/// at the block's end.
#[derive(Debug, Clone)]
pub struct Solution<F> {
    /// Fact entering each block (block start for forward, block end for
    /// backward analyses).
    pub block_in: Vec<F>,
    /// Fact leaving each block after its transfer.
    pub block_out: Vec<F>,
}

/// Runs `analysis` to a fixpoint over `func`'s control-flow graph.
pub fn solve<A: Analysis>(analysis: &A, func: &Function, cfg: &Cfg) -> Solution<A::Fact> {
    let n = cfg.block_count();
    let mut block_in: Vec<A::Fact> = (0..n).map(|_| analysis.empty_fact()).collect();
    let mut block_out: Vec<A::Fact> = (0..n).map(|_| analysis.empty_fact()).collect();
    let forward = analysis.direction() == Direction::Forward;

    // Seed the boundary: the entry for forward analyses, every block with no
    // successors (or only back edges out of the reachable region) for
    // backward ones — joining the boundary fact in keeps exits correct even
    // when a `ret` appears mid-function.
    let order: Vec<BlockId> = if forward {
        cfg.rpo().to_vec()
    } else {
        cfg.rpo().iter().rev().copied().collect()
    };
    if forward {
        if let Some(entry) = order.first() {
            block_in[entry.index()] = analysis.boundary_fact(func);
        }
    } else {
        for &b in &order {
            if cfg.succs(b).is_empty() {
                block_in[b.index()] = analysis.boundary_fact(func);
            }
        }
    }

    let mut on_list: Vec<bool> = vec![false; n];
    let mut worklist: std::collections::VecDeque<BlockId> = order.iter().copied().collect();
    for &b in &worklist {
        on_list[b.index()] = true;
    }

    while let Some(b) = worklist.pop_front() {
        on_list[b.index()] = false;
        let out = analysis.transfer(func, b, block_in[b.index()].clone());
        if out == block_out[b.index()] {
            continue;
        }
        block_out[b.index()] = out;
        let next: &[BlockId] = if forward { cfg.succs(b) } else { cfg.preds(b) };
        // Unreachable blocks (only a backward edge can name one) keep the
        // empty fact, as they do in the forward direction.
        for &s in next.iter().filter(|&&s| cfg.is_reachable(s)) {
            let changed = {
                let from = block_out[b.index()].clone();
                analysis.join(&mut block_in[s.index()], &from)
            };
            if changed && !on_list[s.index()] {
                on_list[s.index()] = true;
                worklist.push_back(s);
            }
        }
    }

    Solution {
        block_in,
        block_out,
    }
}

// ---------------------------------------------------------------------------
// Available memory-base expressions.
// ---------------------------------------------------------------------------

/// The position of an instruction inside a function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DefSite {
    /// Block containing the instruction.
    pub block: BlockId,
    /// Index of the instruction inside the block.
    pub ip: usize,
}

/// The symbolic base of an address expression.
///
/// `Param` and `Const` bases are *anchored*: their runtime value is fixed for
/// a whole function invocation, so two anchored expressions can be compared
/// exactly across loop iterations. A `Load` base is a pointer chase (the
/// value the load at `DefSite` produced — different in every iteration of a
/// list walk), and `Unknown` is everything the analysis cannot name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Base {
    /// The `i`-th function parameter.
    Param(usize),
    /// An absolute constant address; the full address lives in
    /// [`AddrExpr::offset`].
    Const,
    /// The result of the load instruction at this site.
    Load(DefSite),
    /// Not representable as base + constant offset.
    Unknown,
}

/// A symbolic address: `base + offset` words.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AddrExpr {
    /// Symbolic base.
    pub base: Base,
    /// Constant word offset from the base (the absolute address for
    /// [`Base::Const`]).
    pub offset: i64,
}

impl AddrExpr {
    /// The unknown address.
    #[must_use]
    pub fn unknown() -> Self {
        AddrExpr {
            base: Base::Unknown,
            offset: 0,
        }
    }

    /// The constant absolute address `addr`.
    #[must_use]
    pub fn constant(addr: i64) -> Self {
        AddrExpr {
            base: Base::Const,
            offset: addr,
        }
    }

    /// The fully resolved absolute address, when the expression is constant.
    #[must_use]
    pub fn as_const(&self) -> Option<i64> {
        match self.base {
            Base::Const => Some(self.offset),
            _ => None,
        }
    }

    /// Whether the base value is fixed for a whole invocation.
    #[must_use]
    pub fn is_anchored(&self) -> bool {
        matches!(self.base, Base::Param(_) | Base::Const)
    }

    fn add_const(self, k: i64) -> Self {
        match self.base {
            Base::Unknown => AddrExpr::unknown(),
            _ => AddrExpr {
                base: self.base,
                offset: self.offset.wrapping_add(k),
            },
        }
    }
}

type ExprMap = HashMap<Reg, AddrExpr>;

struct BaseExprAnalysis;

fn eval_operand(map: &ExprMap, op: &Operand) -> AddrExpr {
    match op {
        Operand::Imm(v) => AddrExpr::constant(*v),
        Operand::Reg(r) => map.get(r).copied().unwrap_or_else(AddrExpr::unknown),
    }
}

fn transfer_inst(map: &mut ExprMap, block: BlockId, ip: usize, inst: &Inst) {
    let Some(dst) = inst.def() else {
        return;
    };
    let value = match inst {
        Inst::Copy { src, .. } => eval_operand(map, src),
        Inst::Binary { op, lhs, rhs, .. } => {
            let a = eval_operand(map, lhs);
            let b = eval_operand(map, rhs);
            match (op, a.as_const(), b.as_const()) {
                (BinOp::Add, Some(ka), Some(kb)) => AddrExpr::constant(ka.wrapping_add(kb)),
                (BinOp::Sub, Some(ka), Some(kb)) => AddrExpr::constant(ka.wrapping_sub(kb)),
                (BinOp::Mul, Some(ka), Some(kb)) => AddrExpr::constant(ka.wrapping_mul(kb)),
                (BinOp::Add, Some(ka), None) => b.add_const(ka),
                (BinOp::Add, None, Some(kb)) => a.add_const(kb),
                (BinOp::Sub, None, Some(kb)) => a.add_const(kb.wrapping_neg()),
                _ => AddrExpr::unknown(),
            }
        }
        Inst::Load { .. } => AddrExpr {
            base: Base::Load(DefSite { block, ip }),
            offset: 0,
        },
        _ => AddrExpr::unknown(),
    };
    map.insert(dst, value);
}

impl Analysis for BaseExprAnalysis {
    type Fact = ExprMap;

    fn direction(&self) -> Direction {
        Direction::Forward
    }

    fn boundary_fact(&self, func: &Function) -> ExprMap {
        func.params
            .iter()
            .enumerate()
            .map(|(i, r)| {
                (
                    *r,
                    AddrExpr {
                        base: Base::Param(i),
                        offset: 0,
                    },
                )
            })
            .collect()
    }

    fn empty_fact(&self) -> ExprMap {
        ExprMap::new()
    }

    fn join(&self, into: &mut ExprMap, from: &ExprMap) -> bool {
        let mut changed = false;
        // A register absent from one side was never defined on that path;
        // the verifier's definite-assignment pass guarantees such a value is
        // never used, so keeping the defined side's expression is sound.
        for (reg, expr) in from {
            match into.get_mut(reg) {
                None => {
                    into.insert(*reg, *expr);
                    changed = true;
                }
                Some(have) if have != expr => {
                    if have.base != Base::Unknown {
                        *have = AddrExpr::unknown();
                        changed = true;
                    }
                }
                Some(_) => {}
            }
        }
        changed
    }

    fn transfer(&self, func: &Function, block: BlockId, mut fact: ExprMap) -> ExprMap {
        for (ip, inst) in func.block(block).insts.iter().enumerate() {
            transfer_inst(&mut fact, block, ip, inst);
        }
        fact
    }
}

/// Available memory-base expressions: for every program point, the symbolic
/// `base + offset` value of each register, suitable for resolving load/store
/// addresses.
#[derive(Debug, Clone)]
pub struct BaseExprs {
    solution: Solution<ExprMap>,
}

/// One memory access (load or store) with its resolved symbolic address.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemAccess {
    /// Where the access sits.
    pub site: DefSite,
    /// `true` for stores, `false` for loads.
    pub is_store: bool,
    /// The accessed address, with the instruction's static offset folded in.
    pub expr: AddrExpr,
}

impl BaseExprs {
    /// Computes available base expressions over `func`.
    #[must_use]
    pub fn compute(func: &Function, cfg: &Cfg) -> Self {
        BaseExprs {
            solution: solve(&BaseExprAnalysis, func, cfg),
        }
    }

    /// Every load and store in `blocks` with its resolved address
    /// expression, in block order.
    #[must_use]
    pub fn accesses(&self, func: &Function, blocks: &[BlockId]) -> Vec<MemAccess> {
        let mut out = Vec::new();
        for &b in blocks {
            let mut map = self.solution.block_in[b.index()].clone();
            for (ip, inst) in func.block(b).insts.iter().enumerate() {
                match inst {
                    Inst::Load { addr, offset, .. } => out.push(MemAccess {
                        site: DefSite { block: b, ip },
                        is_store: false,
                        expr: eval_operand(&map, addr).add_const(*offset),
                    }),
                    Inst::Store { addr, offset, .. } => out.push(MemAccess {
                        site: DefSite { block: b, ip },
                        is_store: true,
                        expr: eval_operand(&map, addr).add_const(*offset),
                    }),
                    _ => {}
                }
                transfer_inst(&mut map, b, ip, inst);
            }
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Static dependence pre-screen.
// ---------------------------------------------------------------------------

/// How a loop's cross-iteration store/load dependences classify statically.
///
/// The lattice is ordered by certainty of *safety*: `ProvablyDisjoint` means
/// no chunk of iterations can read a word another chunk wrote (so conflict
/// detection can never fire), `ProvablyDependent` names a concrete
/// same-address store/load pair, and `Unknown` is everything in between —
/// pointer chases, calls, or unresolved bases. Only the disjoint claim is a
/// proof; the safety-critical soundness direction is that a loop with
/// dynamically measured dependence violations is never classified
/// `ProvablyDisjoint`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DependenceClass {
    /// Every store/load pair provably touches distinct addresses (or the
    /// loop performs no stores at all).
    ProvablyDisjoint,
    /// At least one store/load pair could not be resolved.
    Unknown,
    /// A store and a load provably touch the same address.
    ProvablyDependent,
}

impl std::fmt::Display for DependenceClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DependenceClass::ProvablyDisjoint => write!(f, "provably-disjoint"),
            DependenceClass::Unknown => write!(f, "unknown"),
            DependenceClass::ProvablyDependent => write!(f, "provably-dependent"),
        }
    }
}

/// The dependence pre-screen summary for one loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoopDependence {
    /// Overall classification.
    pub class: DependenceClass,
    /// Stores inside the loop body.
    pub stores: usize,
    /// Loads inside the loop body.
    pub loads: usize,
    /// Store/load pairs proved to touch distinct addresses.
    pub disjoint_pairs: usize,
    /// Store/load pairs proved to touch the same address.
    pub dependent_pairs: usize,
    /// Store/load pairs the analysis could not resolve.
    pub unknown_pairs: usize,
    /// Whether the loop contains calls (whose callees may store).
    pub has_calls: bool,
}

/// Classifies one store/load pair from their symbolic addresses.
fn classify_pair(store: &AddrExpr, load: &AddrExpr) -> DependenceClass {
    if let (Some(a), Some(b)) = (store.as_const(), load.as_const()) {
        return if a == b {
            DependenceClass::ProvablyDependent
        } else {
            DependenceClass::ProvablyDisjoint
        };
    }
    // Anchored bases hold one fixed value for the whole invocation, so a
    // shared base compares by offset — valid across iterations, not just
    // within one.
    if store.is_anchored() && load.is_anchored() && store.base == load.base {
        return if store.offset == load.offset {
            DependenceClass::ProvablyDependent
        } else {
            DependenceClass::ProvablyDisjoint
        };
    }
    DependenceClass::Unknown
}

/// Statically classifies the store/load pairs of the loop spanning `blocks`
/// in `func`.
///
/// Only store/load pairs matter for Spice's speculation safety: chunks
/// commit in iteration order, so a write/write overlap resolves exactly as
/// it would sequentially, while a later chunk *reading* a word an earlier
/// chunk wrote is the dependence violation the conflict detector hunts.
#[must_use]
pub fn classify_loop_dependences(func: &Function, cfg: &Cfg, blocks: &[BlockId]) -> LoopDependence {
    let exprs = BaseExprs::compute(func, cfg);
    let accesses = exprs.accesses(func, blocks);
    let has_calls = blocks.iter().any(|&b| {
        func.block(b)
            .insts
            .iter()
            .any(|i| matches!(i, Inst::Call { .. }))
    });

    let stores: Vec<&MemAccess> = accesses.iter().filter(|a| a.is_store).collect();
    let loads: Vec<&MemAccess> = accesses.iter().filter(|a| !a.is_store).collect();

    let mut dep = LoopDependence {
        class: DependenceClass::Unknown,
        stores: stores.len(),
        loads: loads.len(),
        disjoint_pairs: 0,
        dependent_pairs: 0,
        unknown_pairs: 0,
        has_calls,
    };

    for s in &stores {
        for l in &loads {
            match classify_pair(&s.expr, &l.expr) {
                DependenceClass::ProvablyDisjoint => dep.disjoint_pairs += 1,
                DependenceClass::ProvablyDependent => dep.dependent_pairs += 1,
                DependenceClass::Unknown => dep.unknown_pairs += 1,
            }
        }
    }

    dep.class = if has_calls {
        // A callee can store anywhere; nothing is provable.
        DependenceClass::Unknown
    } else if dep.dependent_pairs > 0 {
        DependenceClass::ProvablyDependent
    } else if stores.is_empty() || dep.unknown_pairs == 0 {
        // No stores means chunks write nothing a later chunk could read;
        // otherwise every pair was proved disjoint.
        DependenceClass::ProvablyDisjoint
    } else {
        DependenceClass::Unknown
    };
    dep
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;

    /// `for (c = head; c != 0; c = c->next) sum += c->val;` — read-only body.
    fn list_sum() -> (Function, Cfg, Vec<BlockId>) {
        let mut b = FunctionBuilder::new("list_sum");
        let head = b.param();
        let header = b.new_labeled_block("header");
        let body = b.new_labeled_block("body");
        let exit = b.new_labeled_block("exit");
        let c = b.copy(head);
        let sum = b.copy(0i64);
        b.br(header);
        b.switch_to(header);
        let done = b.binop(BinOp::Eq, c, 0i64);
        b.cond_br(done, exit, body);
        b.switch_to(body);
        let v = b.load(c, 1);
        let s2 = b.binop(BinOp::Add, sum, v);
        b.copy_into(sum, s2);
        let next = b.load(c, 0);
        b.copy_into(c, next);
        b.br(header);
        b.switch_to(exit);
        b.ret(Some(Operand::Reg(sum)));
        let f = b.finish();
        let cfg = Cfg::new(&f);
        (f, cfg, vec![header, body])
    }

    #[test]
    fn read_only_loop_is_provably_disjoint() {
        let (f, cfg, blocks) = list_sum();
        let dep = classify_loop_dependences(&f, &cfg, &blocks);
        assert_eq!(dep.stores, 0);
        assert_eq!(dep.class, DependenceClass::ProvablyDisjoint);
    }

    #[test]
    fn pointer_chase_store_is_unknown() {
        // Walk a list and store through the cursor: cross-iteration
        // dependences cannot be ruled out.
        let mut b = FunctionBuilder::new("list_store");
        let head = b.param();
        let header = b.new_labeled_block("header");
        let body = b.new_labeled_block("body");
        let exit = b.new_labeled_block("exit");
        let c = b.copy(head);
        b.br(header);
        b.switch_to(header);
        let done = b.binop(BinOp::Eq, c, 0i64);
        b.cond_br(done, exit, body);
        b.switch_to(body);
        let v = b.load(c, 1);
        let v2 = b.binop(BinOp::Add, v, 1i64);
        b.store(v2, c, 1);
        let next = b.load(c, 0);
        b.copy_into(c, next);
        b.br(header);
        b.switch_to(exit);
        b.ret(None);
        let f = b.finish();
        let cfg = Cfg::new(&f);
        let dep = classify_loop_dependences(&f, &cfg, &[header, body]);
        assert_eq!(dep.class, DependenceClass::Unknown);
        assert!(dep.unknown_pairs > 0);
    }

    #[test]
    fn anchored_same_base_distinct_offsets_are_disjoint() {
        // store [p+0], load [p+1] with p a parameter: fixed base, distinct
        // offsets — provably disjoint even across iterations.
        let mut b = FunctionBuilder::new("strided");
        let p = b.param();
        let n = b.param();
        let header = b.new_labeled_block("header");
        let body = b.new_labeled_block("body");
        let exit = b.new_labeled_block("exit");
        let i = b.copy(0i64);
        b.br(header);
        b.switch_to(header);
        let done = b.binop(BinOp::Ge, i, n);
        b.cond_br(done, exit, body);
        b.switch_to(body);
        let v = b.load(p, 1);
        b.store(v, p, 0);
        let i2 = b.binop(BinOp::Add, i, 1i64);
        b.copy_into(i, i2);
        b.br(header);
        b.switch_to(exit);
        b.ret(None);
        let f = b.finish();
        let cfg = Cfg::new(&f);
        let dep = classify_loop_dependences(&f, &cfg, &[header, body]);
        assert_eq!(dep.class, DependenceClass::ProvablyDisjoint);
        assert_eq!(dep.disjoint_pairs, 1);
    }

    #[test]
    fn anchored_same_address_is_provably_dependent() {
        // store [p+0] then load [p+0]: the same word every iteration.
        let mut b = FunctionBuilder::new("same_addr");
        let p = b.param();
        let n = b.param();
        let header = b.new_labeled_block("header");
        let body = b.new_labeled_block("body");
        let exit = b.new_labeled_block("exit");
        let i = b.copy(0i64);
        b.br(header);
        b.switch_to(header);
        let done = b.binop(BinOp::Ge, i, n);
        b.cond_br(done, exit, body);
        b.switch_to(body);
        let v = b.load(p, 0);
        let v2 = b.binop(BinOp::Add, v, 1i64);
        b.store(v2, p, 0);
        let i2 = b.binop(BinOp::Add, i, 1i64);
        b.copy_into(i, i2);
        b.br(header);
        b.switch_to(exit);
        b.ret(None);
        let f = b.finish();
        let cfg = Cfg::new(&f);
        let dep = classify_loop_dependences(&f, &cfg, &[header, body]);
        assert_eq!(dep.class, DependenceClass::ProvablyDependent);
    }

    #[test]
    fn constant_addresses_resolve_exactly() {
        let mut b = FunctionBuilder::new("consts");
        let header = b.new_labeled_block("header");
        let body = b.new_labeled_block("body");
        let exit = b.new_labeled_block("exit");
        let i = b.copy(0i64);
        b.br(header);
        b.switch_to(header);
        let done = b.binop(BinOp::Ge, i, 4i64);
        b.cond_br(done, exit, body);
        b.switch_to(body);
        let v = b.load(2000i64, 0);
        b.store(v, 3000i64, 0);
        let i2 = b.binop(BinOp::Add, i, 1i64);
        b.copy_into(i, i2);
        b.br(header);
        b.switch_to(exit);
        b.ret(None);
        let f = b.finish();
        let cfg = Cfg::new(&f);
        let dep = classify_loop_dependences(&f, &cfg, &[header, body]);
        assert_eq!(dep.class, DependenceClass::ProvablyDisjoint);

        // Base-expression resolution sees through an add chain.
        let exprs = BaseExprs::compute(&f, &cfg);
        let accesses = exprs.accesses(&f, &[body]);
        assert_eq!(accesses.len(), 2);
        assert_eq!(accesses[0].expr.as_const(), Some(2000));
        assert_eq!(accesses[1].expr.as_const(), Some(3000));
    }
}
