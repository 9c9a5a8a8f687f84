//! A reusable forward/backward dataflow framework over [`Cfg`], the dense
//! register-indexed fact forms its clients share, the instance the
//! speculation-safety tooling is built from — available memory-base
//! expressions — and the static dependence pre-screen that classifies a
//! loop's store/load pairs with it.
//!
//! The framework is deliberately small: facts are per-block values joined at
//! control-flow merges by a caller-supplied `join`, propagated by a
//! caller-supplied block `transfer`, and iterated to a fixpoint on a
//! worklist seeded in (reverse) post order. [`solve`] is the one solver in
//! the crate; three analyses run on it:
//!
//! * liveness ([`crate::liveness::Liveness`], backward, union),
//! * definite assignment ([`crate::verify::verify_function`], forward,
//!   intersection),
//! * available base expressions ([`accesses`], forward).
//!
//! Every register-keyed fact is dense: indexed by [`Reg::index`] and sized
//! by [`Function::reg_count`] — a [`RegSet`] bitset for the two set-valued
//! analyses (the bit-vector form of Kildall, "A Unified Approach to Global
//! Program Optimization", POPL 1973). Hash maps were used here until
//! measurement showed the speculation-safety lints' base-expression solve
//! was about half of a Spice preparation, spent in hashing and cloning maps
//! of a few hundred entries. A register at or past `reg_count` (malformed
//! IR, which the verifier reports) reads as absent and is never stored.
//!
//! Base expressions are asked about a few blocks' addresses, so they are
//! solved over the *address slice* of those blocks only (a backward program
//! slice, Weiser, "Program Slicing", ICSE 1981): the register address
//! operands of the blocks' loads and stores, closed under the operands of
//! every `Copy` and `Add`/`Sub`/`Mul` that defines a slice register, in any
//! block. The fact is a `Vec<Option<AddrExpr>>` with one slot per slice
//! register. The slice is exact, not an approximation: a `Load` defines
//! `Base::Load` and every other definition `Unknown` whatever its operands
//! hold, so a slice register's transfer reads only slice registers, while
//! the join and the boundary act on each register alone: the slice's
//! equations form a closed subsystem, and solving it gives every slice
//! register the expression a solve over all registers gives
//! (`dataflow_equivalence.rs` checks this against a full-width oracle on
//! every suite function). The dependence pre-screen asks about the target
//! loop's blocks only.

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

    /// Applies one whole block to `fact` in place (instructions in
    /// execution order for forward analyses, reverse order for backward
    /// ones).
    fn transfer(&self, func: &Function, block: BlockId, fact: &mut Self::Fact);
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

    // One scratch fact carries every transfer: it swaps with the block's
    // old output when the output changes, so the solve allocates no fact
    // per visit.
    let mut scratch = analysis.empty_fact();
    while let Some(b) = worklist.pop_front() {
        on_list[b.index()] = false;
        scratch.clone_from(&block_in[b.index()]);
        analysis.transfer(func, b, &mut scratch);
        if scratch == block_out[b.index()] {
            continue;
        }
        std::mem::swap(&mut block_out[b.index()], &mut scratch);
        let next: &[BlockId] = if forward { cfg.succs(b) } else { cfg.preds(b) };
        // Unreachable blocks (only a backward edge can name one) keep the
        // empty fact, as they do in the forward direction.
        for &s in next.iter().filter(|&&s| cfg.is_reachable(s)) {
            if analysis.join(&mut block_in[s.index()], &block_out[b.index()]) && !on_list[s.index()]
            {
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
// Dense register sets.
// ---------------------------------------------------------------------------

/// A set of registers as a bitset indexed by [`Reg::index`], holding the
/// registers below a fixed capacity (a function's [`Function::reg_count`]).
/// A register at or past the capacity is never a member: inserting one is
/// a no-op.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RegSet {
    words: Vec<u64>,
    capacity: usize,
}

impl RegSet {
    /// The empty set of registers below `capacity`.
    #[must_use]
    pub fn empty(capacity: usize) -> Self {
        RegSet {
            words: vec![0; capacity.div_ceil(64)],
            capacity,
        }
    }

    /// The set of every register below `capacity`.
    #[must_use]
    pub fn full(capacity: usize) -> Self {
        let mut words = vec![u64::MAX; capacity.div_ceil(64)];
        if let Some(last) = words.last_mut() {
            let tail = capacity % 64;
            if tail != 0 {
                *last = (1 << tail) - 1;
            }
        }
        RegSet { words, capacity }
    }

    /// The set of `regs` below `capacity`.
    #[must_use]
    pub fn from_regs(capacity: usize, regs: impl IntoIterator<Item = Reg>) -> Self {
        let mut set = RegSet::empty(capacity);
        for r in regs {
            set.insert(r);
        }
        set
    }

    /// Whether `r` is a member.
    #[must_use]
    pub fn contains(&self, r: Reg) -> bool {
        let i = r.index();
        i < self.capacity && self.words[i / 64] & (1 << (i % 64)) != 0
    }

    /// Adds `r`; returns `true` if it was not a member. A register at or
    /// past the capacity is dropped (and reported as not inserted).
    pub fn insert(&mut self, r: Reg) -> bool {
        let i = r.index();
        if i >= self.capacity {
            return false;
        }
        let (word, bit) = (&mut self.words[i / 64], 1 << (i % 64));
        let fresh = *word & bit == 0;
        *word |= bit;
        fresh
    }

    /// Removes `r` if it is a member.
    pub fn remove(&mut self, r: Reg) {
        let i = r.index();
        if i < self.capacity {
            self.words[i / 64] &= !(1 << (i % 64));
        }
    }

    /// Removes every member.
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// Adds every member of `other`; returns `true` if `self` grew.
    pub fn union_with(&mut self, other: &RegSet) -> bool {
        let mut changed = false;
        for (w, &o) in self.words.iter_mut().zip(&other.words) {
            changed |= o & !*w != 0;
            *w |= o;
        }
        changed
    }

    /// Keeps only the members of `other`; returns `true` if `self` shrank.
    pub fn intersect_with(&mut self, other: &RegSet) -> bool {
        let mut changed = false;
        for (w, &o) in self.words.iter_mut().zip(&other.words) {
            changed |= *w & !o != 0;
            *w &= o;
        }
        changed
    }

    /// Whether the set has no members.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// The members in ascending register order.
    pub fn iter(&self) -> impl Iterator<Item = Reg> + '_ {
        self.words.iter().enumerate().flat_map(|(i, &word)| {
            let mut rest = word;
            std::iter::from_fn(move || {
                if rest == 0 {
                    return None;
                }
                let bit = rest.trailing_zeros();
                rest &= rest - 1;
                Some(Reg(i as u32 * 64 + bit))
            })
        })
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

/// The base-expression fact: one slot per address-slice register (see
/// [`accesses`]), `None` while no path to the point defines the register.
type ExprFact = Vec<Option<AddrExpr>>;

/// Available base expressions over one address slice: the registers whose
/// values the queried blocks' addresses are computed from.
struct BaseExprs {
    /// The fact slot of each register below [`Function::reg_count`], `None`
    /// for a register outside the slice.
    slots: Vec<Option<usize>>,
    /// Slice registers, i.e. slots per fact.
    width: usize,
}

impl BaseExprs {
    /// The address slice of `blocks`: the register address operands of
    /// their loads and stores, closed under the operands of every `Copy`
    /// and `Add`/`Sub`/`Mul` defining a slice register anywhere in `func` —
    /// the only definitions whose expression reads another register's.
    fn address_slice(func: &Function, blocks: &[BlockId]) -> Self {
        let regs = func.reg_count();
        let mut slice = RegSet::empty(regs);
        for &b in blocks {
            for inst in &func.block(b).insts {
                if let Inst::Load {
                    addr: Operand::Reg(r),
                    ..
                }
                | Inst::Store {
                    addr: Operand::Reg(r),
                    ..
                } = inst
                {
                    slice.insert(*r);
                }
            }
        }
        // A definition's operands are usually defined before it, so a
        // backward sweep closes most chains in one pass.
        loop {
            let mut grew = false;
            for block in func.blocks.iter().rev() {
                for inst in block.insts.iter().rev() {
                    let (dst, operands) = match inst {
                        Inst::Copy { dst, src } => (dst, [src, src]),
                        Inst::Binary {
                            op: BinOp::Add | BinOp::Sub | BinOp::Mul,
                            dst,
                            lhs,
                            rhs,
                        } => (dst, [lhs, rhs]),
                        _ => continue,
                    };
                    if slice.contains(*dst) {
                        for op in operands {
                            if let Operand::Reg(r) = op {
                                grew |= slice.insert(*r);
                            }
                        }
                    }
                }
            }
            if !grew {
                break;
            }
        }
        let mut slots = vec![None; regs];
        let mut width = 0;
        for r in slice.iter() {
            slots[r.index()] = Some(width);
            width += 1;
        }
        BaseExprs { slots, width }
    }

    fn slot(&self, r: Reg) -> Option<usize> {
        self.slots.get(r.index()).copied().flatten()
    }

    fn eval_operand(&self, fact: &ExprFact, op: &Operand) -> AddrExpr {
        match op {
            Operand::Imm(v) => AddrExpr::constant(*v),
            Operand::Reg(r) => self
                .slot(*r)
                .and_then(|k| fact[k])
                .unwrap_or_else(AddrExpr::unknown),
        }
    }

    fn transfer_inst(&self, fact: &mut ExprFact, block: BlockId, ip: usize, inst: &Inst) {
        let Some(slot) = inst.def().and_then(|dst| self.slot(dst)) else {
            return;
        };
        let value = match inst {
            Inst::Copy { src, .. } => self.eval_operand(fact, src),
            Inst::Binary { op, lhs, rhs, .. } => {
                let a = self.eval_operand(fact, lhs);
                let b = self.eval_operand(fact, rhs);
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
        fact[slot] = Some(value);
    }
}

impl Analysis for BaseExprs {
    type Fact = ExprFact;

    fn direction(&self) -> Direction {
        Direction::Forward
    }

    fn boundary_fact(&self, func: &Function) -> ExprFact {
        let mut fact = self.empty_fact();
        for (i, &r) in func.params.iter().enumerate() {
            if let Some(slot) = self.slot(r) {
                fact[slot] = Some(AddrExpr {
                    base: Base::Param(i),
                    offset: 0,
                });
            }
        }
        fact
    }

    fn empty_fact(&self) -> ExprFact {
        vec![None; self.width]
    }

    fn join(&self, into: &mut ExprFact, from: &ExprFact) -> bool {
        let mut changed = false;
        // A register absent from one side was never defined on that path;
        // the verifier's definite-assignment pass guarantees such a value is
        // never used, so keeping the defined side's expression is sound.
        for (have, expr) in into.iter_mut().zip(from) {
            let Some(expr) = expr else {
                continue;
            };
            match have {
                None => {
                    *have = Some(*expr);
                    changed = true;
                }
                Some(have) if have != expr && have.base != Base::Unknown => {
                    *have = AddrExpr::unknown();
                    changed = true;
                }
                Some(_) => {}
            }
        }
        changed
    }

    fn transfer(&self, func: &Function, block: BlockId, fact: &mut ExprFact) {
        for (ip, inst) in func.block(block).insts.iter().enumerate() {
            self.transfer_inst(fact, block, ip, inst);
        }
    }
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

/// Every load and store in `blocks` with its address resolved to an
/// available base expression, in the order of `blocks`.
///
/// Only the address slice of `blocks` is solved (see the module docs), and
/// every answer is the one a solve over all of `func`'s registers gives.
#[must_use]
pub fn accesses(func: &Function, cfg: &Cfg, blocks: &[BlockId]) -> Vec<MemAccess> {
    let exprs = BaseExprs::address_slice(func, blocks);
    let solution = solve(&exprs, func, cfg);
    let mut out = Vec::new();
    let mut fact = ExprFact::new();
    for &b in blocks {
        fact.clone_from(&solution.block_in[b.index()]);
        for (ip, inst) in func.block(b).insts.iter().enumerate() {
            let access = match inst {
                Inst::Load { addr, offset, .. } => Some((false, addr, offset)),
                Inst::Store { addr, offset, .. } => Some((true, addr, offset)),
                _ => None,
            };
            if let Some((is_store, addr, offset)) = access {
                out.push(MemAccess {
                    site: DefSite { block: b, ip },
                    is_store,
                    expr: exprs.eval_operand(&fact, addr).add_const(*offset),
                });
            }
            exprs.transfer_inst(&mut fact, b, ip, inst);
        }
    }
    out
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
    let accesses = accesses(func, cfg, blocks);
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
    fn reg_set_holds_registers_below_its_capacity() {
        let mut set = RegSet::empty(70);
        assert!(set.is_empty());
        assert!(set.insert(Reg(69)) && set.insert(Reg(3)) && set.insert(Reg(64)));
        assert!(!set.insert(Reg(3)), "already a member");
        assert!(
            !set.insert(Reg(70)) && !set.contains(Reg(70)),
            "past capacity"
        );
        assert_eq!(set.iter().collect::<Vec<_>>(), [Reg(3), Reg(64), Reg(69)]);
        set.remove(Reg(64));
        set.remove(Reg(500));
        assert_eq!(set.iter().count(), 2);

        let full = RegSet::full(70);
        assert_eq!(full.iter().count(), 70);
        assert_eq!(full.iter().last(), Some(Reg(69)));
        let mut meet = full.clone();
        assert!(meet.intersect_with(&set));
        assert_eq!(meet, set);
        assert!(!meet.union_with(&set));
        assert!(meet.union_with(&full) && meet == full);
    }

    /// A register at or past `reg_count` is malformed IR: the dense facts
    /// read it as absent and drop writes to it instead of indexing out of
    /// bounds, and the verifier still names it.
    #[test]
    fn out_of_range_registers_are_absent_not_a_panic() {
        let mut f = Function::new("malformed");
        let p = f.fresh_reg();
        f.params.push(p);
        let body = f.add_block();
        let entry = f.block_mut(BlockId(0));
        entry.insts.push(Inst::Copy {
            dst: Reg(40),
            src: Operand::Reg(p),
        });
        entry.insts.push(Inst::Load {
            dst: Reg(41),
            addr: Operand::Reg(Reg(40)),
            offset: 2,
        });
        entry.insts.push(Inst::Store {
            src: Operand::Reg(Reg(41)),
            addr: Operand::Reg(p),
            offset: 1,
        });
        entry.terminator = crate::inst::Terminator::Br(body);
        f.block_mut(body).terminator = crate::inst::Terminator::Ret {
            value: Some(Operand::Reg(Reg(41))),
        };
        let cfg = Cfg::new(&f);

        let accesses = accesses(&f, &cfg, &f.block_ids());
        assert_eq!(accesses.len(), 2);
        assert_eq!(accesses[0].expr, AddrExpr::unknown(), "r40 reads as absent");
        assert_eq!(accesses[1].expr.base, Base::Param(0));
        assert_eq!(accesses[1].expr.offset, 1);

        let live = crate::liveness::Liveness::new(&f, &cfg);
        assert_eq!(live.live_in(BlockId(0)).iter().collect::<Vec<_>>(), [p]);
        assert!(live.live_in(body).is_empty());

        let errs = crate::verify::verify_function(&f).unwrap_err();
        let out_of_range: Vec<Reg> = errs
            .iter()
            .filter_map(|e| match e {
                crate::verify::VerifyError::RegisterOutOfRange { reg, .. } => Some(*reg),
                _ => None,
            })
            .collect();
        assert_eq!(out_of_range, [Reg(40), Reg(40), Reg(41), Reg(41), Reg(41)]);
        assert_eq!(
            errs.len(),
            5,
            "no use-before-def for a register that does not exist"
        );
    }

    /// The body's addresses go through the cursor `c`, defined by a copy
    /// of the parameter and a copy of a load: the slice is those three
    /// registers, not the sum, the loaded value or the exit test.
    #[test]
    fn address_slice_holds_only_what_addresses_are_computed_from() {
        let (f, cfg, blocks) = list_sum();
        let exprs = BaseExprs::address_slice(&f, &blocks[1..]);
        let slice: Vec<Reg> = (0..f.reg_count() as u32)
            .map(Reg)
            .filter(|&r| exprs.slot(r).is_some())
            .collect();
        let head = f.params[0];
        let next = f.block(blocks[1]).insts[3].def().unwrap();
        let Some(Inst::Load {
            addr: Operand::Reg(c),
            ..
        }) = f.block(blocks[1]).insts.first()
        else {
            panic!("the body starts with a load through the cursor");
        };
        let mut want = vec![head, *c, next];
        want.sort();
        assert_eq!(slice, want);
        assert_eq!(exprs.width, 3);
        assert_eq!(f.reg_count(), 7);
        assert_eq!(
            accesses(&f, &cfg, &blocks[1..])
                .iter()
                .map(|a| a.expr.base)
                .collect::<Vec<_>>(),
            [Base::Unknown, Base::Unknown],
            "the cursor joins a parameter with a pointer chase"
        );
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
        let accesses = accesses(&f, &cfg, &[body]);
        assert_eq!(accesses.len(), 2);
        assert_eq!(accesses[0].expr.as_const(), Some(2000));
        assert_eq!(accesses[1].expr.as_const(), Some(3000));
    }
}
