//! Pre-decoded IR: the dense, index-addressed execution form shared by the
//! interpreter, the timing simulator's cores and the native backend's chunk
//! workers.
//!
//! Nothing about *which* instruction runs next, or *where* its operands
//! live, depends on run-time state, so all of it is resolved here once. Two
//! invariants carry the form:
//!
//! **Pcs are program-wide.** [`DecodedProgram`] owns one instruction array
//! for the whole program; every function occupies a contiguous range of it,
//! with its block terminators inlined as ordinary decoded instructions. A
//! pc, a branch target, a function's entry pc, a block's entry pc and a
//! suspended frame's return pc are all indices into that one array, so
//! retiring an instruction is `program.insts[pc]` with no function lookup
//! in front of it. A [`DecodedFunction`] is metadata only: where its range
//! starts, where its blocks start, the `pc → (block, intra-block index)`
//! source map the profiling observer uses, its parameters and its frame
//! layout. Successor [`BlockId`]s ride along in the branch instructions
//! purely so [`crate::interp::ThreadState::current_block`] stays observable
//! (the native backend's chunk boundaries key on header arrivals).
//!
//! **A frame is registers, then constants, and only decode writes the
//! tail.** Each function's distinct immediates are interned into a constant
//! pool, and every frame of that function is laid out as
//! `[r0 .. r{reg_count-1} | pool]`. Every operand of a decoded instruction
//! is therefore a `u32` *slot* into the frame — a register below
//! `reg_count`, a pool constant at or above it — and reading one is a single
//! index with no register-or-immediate match. The tail is written once, when
//! `DecodedFunction::new_frame` builds the frame: decode rejects any
//! instruction naming a register at or past `reg_count`
//! ([`DecodeErrorKind::RegisterOutOfRange`]), so no decoded destination slot
//! reaches the pool, and [`crate::interp::ThreadState::reg`] /
//! [`crate::interp::ThreadState::set_reg`] refuse such a slot.
//!
//! Decoding is semantically invisible: a decoded thread retires the exact
//! same [`crate::interp::ExecInfo`] stream, traps included, as a walker over
//! the structured IR (enforced by the cross-representation equivalence
//! tests in `crates/tests`). The [`Program`] itself stays the single source
//! of truth — a `DecodedProgram` is a derived view, rebuilt after any
//! transformation.

use std::collections::HashMap;

use crate::function::{Function, Program};
use crate::inst::{Inst, InstClass, Terminator};
use crate::types::{BinOp, BlockId, FuncId, Operand, Reg};

/// A malformed input rejected while decoding, with enough context to point
/// at the offending instruction: the function (name and id), the block, and
/// the intra-block instruction index (`ip` equals the block's instruction
/// count when the terminator itself is at fault).
///
/// The lint/verify gate runs before any decode in the pipeline, so in
/// practice this error is reachable only from hand-built IR.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError {
    /// Name of the function that failed to decode.
    pub func: String,
    /// Id of the function that failed to decode.
    pub func_id: FuncId,
    /// Block holding the offending instruction.
    pub block: BlockId,
    /// Intra-block instruction index (the terminator slot is
    /// `insts.len()`).
    pub ip: usize,
    /// What went wrong.
    pub kind: DecodeErrorKind,
}

/// The ways decoding can fail.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeErrorKind {
    /// A terminator targets a block the function does not have, so no entry
    /// pc exists for it.
    DanglingTarget {
        /// The missing target block.
        target: BlockId,
    },
    /// The function's entry block id is out of range.
    DanglingEntry {
        /// The missing entry block.
        entry: BlockId,
    },
    /// An instruction names a register at or past the function's
    /// `reg_count`. Its frame slot would alias the constant pool.
    RegisterOutOfRange {
        /// The offending register.
        reg: Reg,
    },
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.kind {
            DecodeErrorKind::DanglingTarget { target } => write!(
                f,
                "decode of @{} ({}): {}[{}] targets missing block {target}",
                self.func, self.func_id, self.block, self.ip
            ),
            DecodeErrorKind::DanglingEntry { entry } => write!(
                f,
                "decode of @{} ({}): entry block {entry} does not exist",
                self.func, self.func_id
            ),
            DecodeErrorKind::RegisterOutOfRange { reg } => write!(
                f,
                "decode of @{} ({}): {}[{}] names {reg}, past the function's registers",
                self.func, self.func_id, self.block, self.ip
            ),
        }
    }
}

impl std::error::Error for DecodeError {}

/// A decoded instruction: one element of the program's flat instruction
/// array. Non-terminator variants mirror [`Inst`]; terminators appear as
/// [`DInst::Br`]/[`DInst::CondBr`]/[`DInst::Ret`]/[`DInst::Unreachable`]
/// with their targets resolved to program-wide instruction indices. Every
/// operand and destination is a frame slot (see the module doc).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum DInst {
    /// `dst = op(lhs, rhs)`, with the operation's precomputed timing class
    /// (the one instruction kind whose class is not fixed by its variant).
    Binary {
        op: BinOp,
        class: InstClass,
        dst: u32,
        lhs: u32,
        rhs: u32,
    },
    /// `dst = src`.
    Copy { dst: u32, src: u32 },
    /// Branch-free select.
    Select {
        dst: u32,
        cond: u32,
        if_true: u32,
        if_false: u32,
    },
    /// `dst = mem[addr + offset]`.
    Load { dst: u32, addr: u32, offset: i64 },
    /// `mem[addr + offset] = src`.
    Store { src: u32, addr: u32, offset: i64 },
    /// Bump allocation.
    Alloc { dst: u32, words: u32 },
    /// Function call; argument slots are decoded into a boxed slice once,
    /// so the step loop never rebuilds them.
    Call {
        dst: Option<u32>,
        func: FuncId,
        args: Box<[u32]>,
    },
    /// Channel send.
    Send { chan: u32, value: u32 },
    /// Channel receive (blocking).
    Recv { dst: u32, chan: u32 },
    /// Enter speculation.
    SpecBegin,
    /// Commit speculative state.
    SpecCommit,
    /// Discard speculative state.
    SpecAbort,
    /// Conflict-detection query.
    SpecCheck { dst: u32, core: u32 },
    /// Remote resteer.
    Resteer { core: u32, target: BlockId },
    /// Stop the thread.
    Halt,
    /// No-op.
    Nop,
    /// Profiling hook.
    ProfileHook { site: u32, regs: Box<[u32]> },
    /// Unconditional branch, target resolved to an instruction index.
    Br { pc: u32, block: BlockId },
    /// Conditional branch, both targets resolved.
    CondBr {
        cond: u32,
        then_pc: u32,
        then_block: BlockId,
        else_pc: u32,
        else_block: BlockId,
    },
    /// Return from the current function.
    Ret { value: Option<u32> },
    /// Builder placeholder; traps when executed.
    Unreachable,
}

/// Frame-slot assignment for one function while it decodes: registers map to
/// themselves, each distinct immediate to one pool slot past them, in order
/// of first appearance.
struct Slots {
    reg_count: u32,
    pool: Vec<i64>,
    interned: HashMap<i64, u32>,
}

impl Slots {
    /// The slot of register `r`; `Err(r)` if the function has no such
    /// register.
    fn reg(&self, r: Reg) -> Result<u32, Reg> {
        if r.0 < self.reg_count {
            Ok(r.0)
        } else {
            Err(r)
        }
    }

    fn operand(&mut self, op: Operand) -> Result<u32, Reg> {
        match op {
            Operand::Reg(r) => self.reg(r),
            Operand::Imm(v) => {
                let next = self.reg_count + self.pool.len() as u32;
                Ok(*self.interned.entry(v).or_insert_with(|| {
                    self.pool.push(v);
                    next
                }))
            }
        }
    }
}

/// One function's metadata in decoded form: where its instructions sit in
/// the program-wide array, the tables the interpreter and its drivers need
/// (block entry points, a source map back into the structured IR), and its
/// frame layout.
#[derive(Debug, Clone)]
pub struct DecodedFunction {
    /// Pc of the function's first instruction.
    base: u32,
    /// `block_entry[block.index()]` = program-wide pc of the block's first
    /// instruction.
    block_entry: Vec<u32>,
    /// `src[pc - base]` = (owning block, intra-block instruction index). The
    /// terminator's intra-block index equals the block's instruction count,
    /// mirroring the structured walker's cursor convention.
    src: Vec<(BlockId, u32)>,
    /// Parameter registers (callers bind arguments to these).
    pub(crate) params: Vec<Reg>,
    /// Number of architectural registers: the frame's first `reg_count`
    /// slots.
    pub(crate) reg_count: usize,
    /// The function's distinct immediates: the frame's remaining slots.
    pool: Vec<i64>,
    /// Function name, for diagnostics.
    pub(crate) name: String,
    /// The function's entry block and its pc.
    entry_block: BlockId,
    entry_pc: u32,
}

impl DecodedFunction {
    /// Appends `f`'s instructions to the program-wide array and returns its
    /// metadata.
    fn try_decode(
        f: &Function,
        func_id: FuncId,
        insts: &mut Vec<DInst>,
    ) -> Result<Self, DecodeError> {
        let error = |block: BlockId, ip: usize, kind: DecodeErrorKind| DecodeError {
            func: f.name.clone(),
            func_id,
            block,
            ip,
            kind,
        };
        let base = insts.len() as u32;
        let mut block_entry = Vec::with_capacity(f.blocks.len());
        let mut next_pc = base;
        for b in &f.blocks {
            block_entry.push(next_pc);
            next_pc += b.insts.len() as u32 + 1; // + terminator
        }
        let mut slots = Slots {
            reg_count: f.reg_count() as u32,
            pool: Vec::new(),
            interned: HashMap::new(),
        };
        let mut src = Vec::with_capacity((next_pc - base) as usize);
        for (bi, b) in f.blocks.iter().enumerate() {
            let block = BlockId(bi as u32);
            for (ip, inst) in b.insts.iter().enumerate() {
                src.push((block, ip as u32));
                insts.push(Self::decode_inst(inst, &mut slots).map_err(|reg| {
                    error(block, ip, DecodeErrorKind::RegisterOutOfRange { reg })
                })?);
            }
            src.push((block, b.insts.len() as u32));
            insts.push(
                Self::decode_terminator(&b.terminator, &block_entry, &mut slots)
                    .map_err(|kind| error(block, b.insts.len(), kind))?,
            );
        }
        let Some(&entry_pc) = block_entry.get(f.entry.index()) else {
            return Err(error(
                f.entry,
                0,
                DecodeErrorKind::DanglingEntry { entry: f.entry },
            ));
        };
        if let Some(&reg) = f.params.iter().find(|p| slots.reg(**p).is_err()) {
            return Err(error(
                f.entry,
                0,
                DecodeErrorKind::RegisterOutOfRange { reg },
            ));
        }
        Ok(DecodedFunction {
            base,
            block_entry,
            src,
            params: f.params.clone(),
            reg_count: f.reg_count(),
            pool: slots.pool,
            name: f.name.clone(),
            entry_block: f.entry,
            entry_pc,
        })
    }

    fn decode_inst(inst: &Inst, slots: &mut Slots) -> Result<DInst, Reg> {
        Ok(match inst {
            Inst::Binary { op, dst, lhs, rhs } => DInst::Binary {
                op: *op,
                class: inst.class(),
                dst: slots.reg(*dst)?,
                lhs: slots.operand(*lhs)?,
                rhs: slots.operand(*rhs)?,
            },
            Inst::Copy { dst, src } => DInst::Copy {
                dst: slots.reg(*dst)?,
                src: slots.operand(*src)?,
            },
            Inst::Select {
                dst,
                cond,
                if_true,
                if_false,
            } => DInst::Select {
                dst: slots.reg(*dst)?,
                cond: slots.operand(*cond)?,
                if_true: slots.operand(*if_true)?,
                if_false: slots.operand(*if_false)?,
            },
            Inst::Load { dst, addr, offset } => DInst::Load {
                dst: slots.reg(*dst)?,
                addr: slots.operand(*addr)?,
                offset: *offset,
            },
            Inst::Store { src, addr, offset } => DInst::Store {
                src: slots.operand(*src)?,
                addr: slots.operand(*addr)?,
                offset: *offset,
            },
            Inst::Alloc { dst, words } => DInst::Alloc {
                dst: slots.reg(*dst)?,
                words: slots.operand(*words)?,
            },
            Inst::Call { dst, func, args } => DInst::Call {
                dst: dst.map(|d| slots.reg(d)).transpose()?,
                func: *func,
                args: args
                    .iter()
                    .map(|a| slots.operand(*a))
                    .collect::<Result<_, _>>()?,
            },
            Inst::Send { chan, value } => DInst::Send {
                chan: slots.operand(*chan)?,
                value: slots.operand(*value)?,
            },
            Inst::Recv { dst, chan } => DInst::Recv {
                dst: slots.reg(*dst)?,
                chan: slots.operand(*chan)?,
            },
            Inst::SpecBegin => DInst::SpecBegin,
            Inst::SpecCommit => DInst::SpecCommit,
            Inst::SpecAbort => DInst::SpecAbort,
            Inst::SpecCheck { dst, core } => DInst::SpecCheck {
                dst: slots.reg(*dst)?,
                core: slots.operand(*core)?,
            },
            Inst::Resteer { core, target } => DInst::Resteer {
                core: slots.operand(*core)?,
                target: *target,
            },
            Inst::Halt => DInst::Halt,
            Inst::Nop => DInst::Nop,
            Inst::ProfileHook { site, regs } => DInst::ProfileHook {
                site: *site,
                regs: regs
                    .iter()
                    .map(|r| slots.reg(*r))
                    .collect::<Result<_, _>>()?,
            },
        })
    }

    /// Resolves a terminator's targets to instruction indices and its
    /// operands to slots.
    fn decode_terminator(
        t: &Terminator,
        block_entry: &[u32],
        slots: &mut Slots,
    ) -> Result<DInst, DecodeErrorKind> {
        let entry_of = |b: &BlockId| {
            block_entry
                .get(b.index())
                .copied()
                .ok_or(DecodeErrorKind::DanglingTarget { target: *b })
        };
        let mut slot_of = |op: Operand| {
            slots
                .operand(op)
                .map_err(|reg| DecodeErrorKind::RegisterOutOfRange { reg })
        };
        Ok(match t {
            Terminator::Br(b) => DInst::Br {
                pc: entry_of(b)?,
                block: *b,
            },
            Terminator::CondBr {
                cond,
                then_bb,
                else_bb,
            } => DInst::CondBr {
                cond: slot_of(*cond)?,
                then_pc: entry_of(then_bb)?,
                then_block: *then_bb,
                else_pc: entry_of(else_bb)?,
                else_block: *else_bb,
            },
            Terminator::Ret { value } => DInst::Ret {
                value: value.map(slot_of).transpose()?,
            },
            Terminator::Unreachable => DInst::Unreachable,
        })
    }

    /// A fresh frame for this function: `args` bound to the parameter
    /// registers, every other register zero, then the constant pool. The one
    /// place a frame's tail is written.
    pub(crate) fn new_frame(&self, args: impl Iterator<Item = i64>) -> Vec<i64> {
        let mut regs = vec![0i64; self.reg_count + self.pool.len()];
        regs[self.reg_count..].copy_from_slice(&self.pool);
        for (p, a) in self.params.iter().zip(args) {
            regs[p.index()] = a;
        }
        regs
    }

    /// The function's entry block.
    #[must_use]
    pub fn entry_block(&self) -> BlockId {
        self.entry_block
    }

    /// The pc of the entry block's first instruction.
    #[must_use]
    pub fn entry_pc(&self) -> usize {
        self.entry_pc as usize
    }

    /// The pc of `block`'s first instruction.
    ///
    /// # Panics
    ///
    /// Panics if the block id is out of range for this function.
    #[must_use]
    pub fn block_entry(&self, block: BlockId) -> usize {
        self.block_entry[block.index()] as usize
    }

    /// The structured-IR position of the instruction at `pc` (a program-wide
    /// pc inside this function, as a thread executing it holds): its owning
    /// block and intra-block index (equal to the block's instruction count
    /// when `pc` addresses the terminator).
    ///
    /// # Panics
    ///
    /// Panics if `pc` is outside this function.
    #[must_use]
    pub fn source_of(&self, pc: usize) -> (BlockId, usize) {
        let (b, ip) = self.src[pc - self.base as usize];
        (b, ip as usize)
    }

    /// Number of architectural registers (a frame holds the constant pool
    /// after them).
    #[must_use]
    pub fn reg_count(&self) -> usize {
        self.reg_count
    }

    /// The function's constant pool: its distinct immediates in order of
    /// first appearance, living at frame slots `reg_count..`.
    #[must_use]
    pub fn constants(&self) -> &[i64] {
        &self.pool
    }

    /// Number of decoded instructions (terminators included).
    #[must_use]
    pub fn len(&self) -> usize {
        self.src.len()
    }

    /// Whether the function decoded to zero instructions (never: every block
    /// contributes at least its terminator).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.src.is_empty()
    }
}

/// The decoded form of a whole [`Program`]: one instruction array, one
/// [`DecodedFunction`] of metadata per function, produced once and shared
/// (behind `Arc` where needed) by every executor. Purely derived state —
/// rebuild after transforming the program.
#[derive(Debug, Clone)]
pub struct DecodedProgram {
    /// Every function's instructions, back to back in function order.
    pub(crate) insts: Vec<DInst>,
    funcs: Vec<DecodedFunction>,
}

impl DecodedProgram {
    /// Bytes per element of the instruction array — the stride of the
    /// dispatch loop's one index.
    pub const INST_BYTES: usize = std::mem::size_of::<DInst>();

    /// Decodes every function of `program`.
    ///
    /// # Panics
    ///
    /// Panics on malformed input (a dangling block target, a register past
    /// its function's count). The pipeline verifies and lints programs
    /// before decoding, so this is the convenient entry point for known-good
    /// programs; use [`DecodedProgram::try_new`] to handle malformed IR
    /// gracefully.
    #[must_use]
    pub fn new(program: &Program) -> Self {
        match Self::try_new(program) {
            Ok(dp) => dp,
            Err(e) => panic!("decoding a malformed program: {e}"),
        }
    }

    /// Decodes every function of `program`, reporting malformed input as a
    /// typed [`DecodeError`] with `(function, block, ip)` context instead of
    /// panicking mid-flatten.
    ///
    /// # Errors
    ///
    /// Returns the first [`DecodeError`] encountered, in function order.
    pub fn try_new(program: &Program) -> Result<Self, DecodeError> {
        let total = program
            .funcs
            .iter()
            .flat_map(|f| &f.blocks)
            .map(|b| b.insts.len() + 1)
            .sum();
        assert!(
            u32::try_from(total).is_ok(),
            "a program's pcs fit in 32 bits"
        );
        let mut insts = Vec::with_capacity(total);
        let funcs = program
            .funcs
            .iter()
            .enumerate()
            .map(|(i, f)| DecodedFunction::try_decode(f, FuncId(i as u32), &mut insts))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(DecodedProgram { insts, funcs })
    }

    /// The decoded form of one function.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    #[must_use]
    pub fn func(&self, id: FuncId) -> &DecodedFunction {
        &self.funcs[id.index()]
    }

    /// Number of functions.
    #[must_use]
    pub fn func_count(&self) -> usize {
        self.funcs.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::types::BinOp;

    #[test]
    fn blocks_flatten_with_terminators_inlined() {
        let mut b = FunctionBuilder::new("f");
        let x = b.param();
        let loop_bb = b.new_block();
        let exit = b.new_block();
        let y = b.binop(BinOp::Add, x, 1i64);
        b.br(loop_bb);
        b.switch_to(loop_bb);
        let done = b.binop(BinOp::Ge, y, 10i64);
        b.cond_br(done, exit, loop_bb);
        b.switch_to(exit);
        b.ret(Some(Operand::Reg(y)));
        let mut p = Program::new();
        let f = p.add_func(b.finish());

        let dp = DecodedProgram::new(&p);
        let df = dp.func(f);
        // entry: 1 inst + br; loop: 1 inst + condbr; exit: ret.
        assert_eq!(df.len(), 5);
        assert_eq!(df.block_entry(BlockId(0)), 0);
        assert_eq!(df.block_entry(loop_bb), 2);
        assert_eq!(df.block_entry(exit), 4);
        assert!(matches!(dp.insts[1], DInst::Br { pc: 2, .. }));
        assert!(matches!(
            dp.insts[3],
            DInst::CondBr {
                then_pc: 4,
                else_pc: 2,
                ..
            }
        ));
        assert!(matches!(
            dp.insts[0],
            DInst::Binary {
                class: InstClass::IntAlu,
                ..
            }
        ));
        assert_eq!(df.source_of(0), (BlockId(0), 0));
        assert_eq!(df.source_of(1), (BlockId(0), 1)); // terminator slot
        assert_eq!(df.source_of(3), (loop_bb, 1));
        assert_eq!(df.reg_count(), 3);
        assert!(!df.is_empty());
        assert_eq!(dp.func_count(), 1);
    }

    #[test]
    fn dangling_target_reports_typed_context_instead_of_panicking() {
        let mut b = FunctionBuilder::new("broken");
        let bad = BlockId(99);
        let x = b.copy(1i64);
        b.push(Inst::Nop);
        b.br(bad);
        let mut f = b.finish();
        f.block_mut(BlockId(0)).terminator = Terminator::Br(bad);
        let mut p = Program::new();
        p.add_func(f);
        let _ = x;

        let err = DecodedProgram::try_new(&p).unwrap_err();
        assert_eq!(err.func, "broken");
        assert_eq!(err.func_id, FuncId(0));
        assert_eq!(err.block, BlockId(0));
        assert_eq!(err.ip, 2, "terminator slot is insts.len()");
        assert_eq!(err.kind, DecodeErrorKind::DanglingTarget { target: bad });
        assert!(err.to_string().contains("missing block bb99"));
    }

    /// The destination slot a decoded instruction writes, if any.
    fn dst_of(inst: &DInst) -> Option<u32> {
        match inst {
            DInst::Binary { dst, .. }
            | DInst::Copy { dst, .. }
            | DInst::Select { dst, .. }
            | DInst::Load { dst, .. }
            | DInst::Alloc { dst, .. }
            | DInst::Recv { dst, .. }
            | DInst::SpecCheck { dst, .. } => Some(*dst),
            DInst::Call { dst, .. } => *dst,
            _ => None,
        }
    }

    #[test]
    fn constant_pool_holds_each_distinct_immediate_once() {
        let mut b = FunctionBuilder::new("consts");
        let x = b.param();
        let exit = b.new_block();
        let a = b.binop(BinOp::Add, x, i64::MIN);
        let c = b.binop(BinOp::Mul, -7i64, a);
        let d = b.select(0i64, c, 0i64);
        b.store(84i64, d, 2);
        b.send(84i64, i64::MIN);
        b.cond_br(0i64, exit, exit);
        b.switch_to(exit);
        b.ret(Some(Operand::Imm(-7)));
        let mut p = Program::new();
        let f = p.add_func(b.finish());

        let mut nb = FunctionBuilder::new("no_consts");
        let y = nb.param();
        let z = nb.binop(BinOp::Add, y, y);
        nb.ret(Some(Operand::Reg(z)));
        let g = p.add_func(nb.finish());

        let dp = DecodedProgram::new(&p);
        let df = dp.func(f);
        // First-appearance order; load/store offsets are not operands.
        assert_eq!(df.constants(), [i64::MIN, -7, 0, 84]);
        let n = df.reg_count() as u32;
        assert_eq!(n, 4);
        assert_eq!(
            dp.insts[..7],
            [
                DInst::Binary {
                    op: BinOp::Add,
                    class: InstClass::IntAlu,
                    dst: a.0,
                    lhs: x.0,
                    rhs: n,
                },
                DInst::Binary {
                    op: BinOp::Mul,
                    class: InstClass::IntMul,
                    dst: c.0,
                    lhs: n + 1,
                    rhs: a.0,
                },
                DInst::Select {
                    dst: d.0,
                    cond: n + 2,
                    if_true: c.0,
                    if_false: n + 2,
                },
                DInst::Store {
                    src: n + 3,
                    addr: d.0,
                    offset: 2,
                },
                DInst::Send {
                    chan: n + 3,
                    value: n,
                },
                DInst::CondBr {
                    cond: n + 2,
                    then_pc: 6,
                    then_block: exit,
                    else_pc: 6,
                    else_block: exit,
                },
                DInst::Ret { value: Some(n + 1) },
            ]
        );
        // A frame is the registers (arguments bound, the rest zero), then
        // the pool.
        assert_eq!(
            df.new_frame([11].into_iter()),
            [11, 0, 0, 0, i64::MIN, -7, 0, 84]
        );

        let dg = dp.func(g);
        assert!(dg.constants().is_empty());
        assert_eq!(dg.new_frame([5].into_iter()), [5, 0]);
        // The second function's pcs continue the first's.
        assert_eq!(dg.entry_pc(), 7);
        assert_eq!(dg.block_entry(BlockId(0)), 7);
        assert_eq!(dg.source_of(8), (BlockId(0), 1));
        assert_eq!((df.len(), dg.len(), dp.insts.len()), (7, 2, 9));
    }

    #[test]
    fn no_decoded_destination_reaches_the_pool() {
        let (list_min, ..) = crate::fixtures::list_min_program(64);
        let (chained, ..) = crate::fixtures::chained_increment_program(64);
        let mut calls = Program::new();
        let mut cb = FunctionBuilder::new("callee");
        let x = cb.param();
        let v = cb.load(x, 1);
        let w = cb.alloc(4i64);
        let q = cb.recv(3i64);
        let k = cb.spec_check(1i64);
        cb.profile_hook(0, vec![v, w, q, k]);
        cb.ret(Some(Operand::Reg(v)));
        let callee = calls.add_func(cb.finish());
        let mut mb = FunctionBuilder::new("main");
        let r = mb.call(callee, vec![Operand::Imm(1500)]);
        mb.call_void(callee, vec![Operand::Reg(r)]);
        mb.ret(None);
        calls.add_func(mb.finish());

        for program in [list_min, chained, calls] {
            let dp = DecodedProgram::new(&program);
            let mut checked = 0;
            for df in &dp.funcs {
                let range = df.base as usize..df.base as usize + df.len();
                for dst in dp.insts[range].iter().filter_map(dst_of) {
                    assert!((dst as usize) < df.reg_count(), "@{}: slot {dst}", df.name);
                    checked += 1;
                }
            }
            assert!(checked > 0);
        }
    }

    #[test]
    fn register_past_the_count_is_a_typed_error() {
        let wild = Reg(99);
        let as_dst = |b: &mut FunctionBuilder| {
            b.push(Inst::Copy {
                dst: wild,
                src: Operand::Imm(1),
            })
        };
        let as_operand = |b: &mut FunctionBuilder| b.store(wild, 1500i64, 0);
        let as_hook = |b: &mut FunctionBuilder| b.profile_hook(0, vec![wild]);
        let cases: [&dyn Fn(&mut FunctionBuilder); 3] = [&as_dst, &as_operand, &as_hook];
        for case in cases {
            let mut b = FunctionBuilder::new("wild");
            b.copy(7i64);
            case(&mut b);
            b.ret(None);
            let mut p = Program::new();
            p.add_func(b.finish());
            let err = DecodedProgram::try_new(&p).unwrap_err();
            assert_eq!((err.block, err.ip), (BlockId(0), 1));
            assert_eq!(err.kind, DecodeErrorKind::RegisterOutOfRange { reg: wild });
            assert!(err.to_string().contains("names r99"));
        }

        // In a terminator: the slot is the block's instruction count.
        let mut b = FunctionBuilder::new("wild_ret");
        b.copy(7i64);
        b.ret(Some(Operand::Reg(wild)));
        let mut p = Program::new();
        p.add_func(b.finish());
        let err = DecodedProgram::try_new(&p).unwrap_err();
        assert_eq!((err.block, err.ip), (BlockId(0), 1));
        assert_eq!(err.kind, DecodeErrorKind::RegisterOutOfRange { reg: wild });
    }
}
