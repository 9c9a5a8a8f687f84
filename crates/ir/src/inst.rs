//! Instructions and block terminators of the Spice IR.

use serde::{Deserialize, Serialize};

use crate::types::{BinOp, BlockId, FuncId, Operand, Reg};

/// A non-terminator instruction.
///
/// Besides ordinary arithmetic and memory operations, the IR carries the
/// intrinsics the Spice transformation needs from the target machine
/// (paper §3): scalar send/receive between cores, entering/committing/
/// discarding speculative memory state, and the remote `resteer` that
/// redirects a mis-speculated thread into its recovery code.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Inst {
    /// `dst = op(lhs, rhs)`.
    Binary {
        /// Operation to apply.
        op: BinOp,
        /// Destination register.
        dst: Reg,
        /// Left operand.
        lhs: Operand,
        /// Right operand.
        rhs: Operand,
    },
    /// `dst = src`.
    Copy {
        /// Destination register.
        dst: Reg,
        /// Source operand.
        src: Operand,
    },
    /// `dst = cond != 0 ? if_true : if_false` — a branch-free select.
    Select {
        /// Destination register.
        dst: Reg,
        /// Condition operand.
        cond: Operand,
        /// Value when the condition is non-zero.
        if_true: Operand,
        /// Value when the condition is zero.
        if_false: Operand,
    },
    /// `dst = mem[addr + offset]`.
    Load {
        /// Destination register.
        dst: Reg,
        /// Base address operand (word address).
        addr: Operand,
        /// Constant word offset added to the base.
        offset: i64,
    },
    /// `mem[addr + offset] = src`.
    Store {
        /// Value to store.
        src: Operand,
        /// Base address operand (word address).
        addr: Operand,
        /// Constant word offset added to the base.
        offset: i64,
    },
    /// Call a function with arguments, optionally receiving its return value.
    Call {
        /// Register receiving the return value, if any.
        dst: Option<Reg>,
        /// Callee.
        func: FuncId,
        /// Argument operands, bound to the callee's parameter registers.
        args: Vec<Operand>,
    },
    /// Send a scalar on an inter-thread channel (paper: value forwarding /
    /// token communication between cores).
    Send {
        /// Channel identifier operand.
        chan: Operand,
        /// Value to enqueue.
        value: Operand,
    },
    /// Receive a scalar from an inter-thread channel, blocking until one is
    /// available.
    Recv {
        /// Destination register.
        dst: Reg,
        /// Channel identifier operand.
        chan: Operand,
    },
    /// Enter speculative execution: subsequent stores are buffered and can be
    /// discarded by [`Inst::SpecAbort`] or made architectural by
    /// [`Inst::SpecCommit`].
    SpecBegin,
    /// Commit buffered speculative state to memory.
    SpecCommit,
    /// Discard buffered speculative state.
    SpecAbort,
    /// Query the memory system's conflict detection (paper §3, "Conflict
    /// Detection"): `dst` receives 1 if the speculative read set of the
    /// thread on `core` intersects the write set already committed during
    /// this loop invocation — a cross-chunk memory dependence violation —
    /// and 0 otherwise. Executed by the non-speculative main thread while
    /// validating chunks in order.
    SpecCheck {
        /// Destination register for the conflict verdict (0 or 1).
        dst: Reg,
        /// Core whose speculative read set is checked.
        core: Operand,
    },
    /// Redirect the thread running on `core` to `target` in its own
    /// function — the paper's remote resteer instruction used to force a
    /// mis-speculated thread into its recovery block.
    Resteer {
        /// Core whose thread is redirected.
        core: Operand,
        /// Block, within the redirected thread's current function, where
        /// execution resumes.
        target: BlockId,
    },
    /// No operation. Used by instrumentation passes as an anchor.
    Nop,
}

impl Inst {
    /// Returns the register defined by this instruction, if any.
    #[must_use]
    pub fn def(&self) -> Option<Reg> {
        match self {
            Inst::Binary { dst, .. }
            | Inst::Copy { dst, .. }
            | Inst::Select { dst, .. }
            | Inst::Load { dst, .. }
            | Inst::Recv { dst, .. }
            | Inst::SpecCheck { dst, .. } => Some(*dst),
            Inst::Call { dst, .. } => *dst,
            Inst::Store { .. }
            | Inst::Send { .. }
            | Inst::SpecBegin
            | Inst::SpecCommit
            | Inst::SpecAbort
            | Inst::Resteer { .. }
            | Inst::Nop => None,
        }
    }

    /// Appends the registers read by this instruction to `out`.
    pub fn uses_into(&self, out: &mut Vec<Reg>) {
        let mut push = |op: &Operand| {
            if let Operand::Reg(r) = op {
                out.push(*r);
            }
        };
        match self {
            Inst::Binary { lhs, rhs, .. } => {
                push(lhs);
                push(rhs);
            }
            Inst::Copy { src, .. } => push(src),
            Inst::Select {
                cond,
                if_true,
                if_false,
                ..
            } => {
                push(cond);
                push(if_true);
                push(if_false);
            }
            Inst::Load { addr, .. } => push(addr),
            Inst::Store { src, addr, .. } => {
                push(src);
                push(addr);
            }
            Inst::Call { args, .. } => {
                for a in args {
                    push(a);
                }
            }
            Inst::Send { chan, value } => {
                push(chan);
                push(value);
            }
            Inst::Recv { chan, .. } => push(chan),
            Inst::Resteer { core, .. } => push(core),
            Inst::SpecCheck { core, .. } => push(core),
            Inst::SpecBegin | Inst::SpecCommit | Inst::SpecAbort | Inst::Nop => {}
        }
    }

    /// Returns the registers read by this instruction.
    #[must_use]
    pub fn uses(&self) -> Vec<Reg> {
        let mut v = Vec::new();
        self.uses_into(&mut v);
        v
    }

    /// Rewrites every register mentioned by this instruction through `map`.
    ///
    /// Used when the Spice transformation clones a loop body into a new
    /// thread procedure and needs fresh virtual registers.
    pub fn remap_regs(&mut self, mut map: impl FnMut(Reg) -> Reg) {
        let map_op = |op: &mut Operand, map: &mut dyn FnMut(Reg) -> Reg| {
            if let Operand::Reg(r) = op {
                *r = map(*r);
            }
        };
        match self {
            Inst::Binary { dst, lhs, rhs, .. } => {
                map_op(lhs, &mut map);
                map_op(rhs, &mut map);
                *dst = map(*dst);
            }
            Inst::Copy { dst, src } => {
                map_op(src, &mut map);
                *dst = map(*dst);
            }
            Inst::Select {
                dst,
                cond,
                if_true,
                if_false,
            } => {
                map_op(cond, &mut map);
                map_op(if_true, &mut map);
                map_op(if_false, &mut map);
                *dst = map(*dst);
            }
            Inst::Load { dst, addr, .. } => {
                map_op(addr, &mut map);
                *dst = map(*dst);
            }
            Inst::Store { src, addr, .. } => {
                map_op(src, &mut map);
                map_op(addr, &mut map);
            }
            Inst::Call { dst, args, .. } => {
                for a in args.iter_mut() {
                    map_op(a, &mut map);
                }
                if let Some(d) = dst {
                    *d = map(*d);
                }
            }
            Inst::Send { chan, value } => {
                map_op(chan, &mut map);
                map_op(value, &mut map);
            }
            Inst::Recv { dst, chan } => {
                map_op(chan, &mut map);
                *dst = map(*dst);
            }
            Inst::Resteer { core, .. } => map_op(core, &mut map),
            Inst::SpecCheck { dst, core } => {
                map_op(core, &mut map);
                *dst = map(*dst);
            }
            Inst::SpecBegin | Inst::SpecCommit | Inst::SpecAbort | Inst::Nop => {}
        }
    }
}

/// A block terminator.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Terminator {
    /// Unconditional branch.
    Br(BlockId),
    /// Conditional branch: taken when `cond` is non-zero.
    CondBr {
        /// Condition operand.
        cond: Operand,
        /// Target when the condition is non-zero.
        then_bb: BlockId,
        /// Target when the condition is zero.
        else_bb: BlockId,
    },
    /// Return from the current function.
    Ret {
        /// Optional return value.
        value: Option<Operand>,
    },
    /// Placeholder used by builders for not-yet-finished blocks. Invalid in a
    /// verified function.
    Unreachable,
}

/// The successor blocks of a terminator: at most two, stored inline so CFG
/// walks and the instruction decoder never allocate per query. Dereferences
/// to a slice and iterates by value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Successors {
    targets: [BlockId; 2],
    len: u8,
}

impl Default for Successors {
    fn default() -> Self {
        Successors::NONE
    }
}

impl Successors {
    const NONE: Successors = Successors {
        targets: [BlockId(0); 2],
        len: 0,
    };

    fn one(t: BlockId) -> Self {
        Successors {
            targets: [t, BlockId(0)],
            len: 1,
        }
    }

    fn two(a: BlockId, b: BlockId) -> Self {
        Successors {
            targets: [a, b],
            len: 2,
        }
    }

    /// The successors as a slice.
    #[must_use]
    pub fn as_slice(&self) -> &[BlockId] {
        &self.targets[..self.len as usize]
    }
}

impl std::ops::Deref for Successors {
    type Target = [BlockId];

    fn deref(&self) -> &[BlockId] {
        self.as_slice()
    }
}

impl IntoIterator for Successors {
    type Item = BlockId;
    type IntoIter = std::iter::Take<std::array::IntoIter<BlockId, 2>>;

    fn into_iter(self) -> Self::IntoIter {
        self.targets.into_iter().take(self.len as usize)
    }
}

impl<'a> IntoIterator for &'a Successors {
    type Item = &'a BlockId;
    type IntoIter = std::slice::Iter<'a, BlockId>;

    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

impl Terminator {
    /// Returns the possible successor blocks of this terminator, inline —
    /// no allocation per call.
    #[must_use]
    pub fn successors(&self) -> Successors {
        match self {
            Terminator::Br(t) => Successors::one(*t),
            Terminator::CondBr {
                then_bb, else_bb, ..
            } => {
                if then_bb == else_bb {
                    Successors::one(*then_bb)
                } else {
                    Successors::two(*then_bb, *else_bb)
                }
            }
            Terminator::Ret { .. } | Terminator::Unreachable => Successors::NONE,
        }
    }

    /// Returns the registers read by this terminator.
    #[must_use]
    pub fn uses(&self) -> Vec<Reg> {
        match self {
            Terminator::CondBr {
                cond: Operand::Reg(r),
                ..
            } => vec![*r],
            Terminator::Ret {
                value: Some(Operand::Reg(r)),
            } => vec![*r],
            _ => Vec::new(),
        }
    }

    /// Rewrites every register mentioned by this terminator through `map`.
    pub fn remap_regs(&mut self, mut map: impl FnMut(Reg) -> Reg) {
        match self {
            Terminator::CondBr {
                cond: Operand::Reg(r),
                ..
            } => *r = map(*r),
            Terminator::Ret {
                value: Some(Operand::Reg(r)),
            } => *r = map(*r),
            _ => {}
        }
    }

    /// Rewrites every block target of this terminator through `map`.
    pub fn remap_blocks(&mut self, mut map: impl FnMut(BlockId) -> BlockId) {
        match self {
            Terminator::Br(t) => *t = map(*t),
            Terminator::CondBr {
                then_bb, else_bb, ..
            } => {
                *then_bb = map(*then_bb);
                *else_bb = map(*else_bb);
            }
            Terminator::Ret { .. } | Terminator::Unreachable => {}
        }
    }
}

/// Coarse classification of an executed instruction, used by the timing
/// simulator to charge functional-unit latencies and by profilers to count
/// instruction mixes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum InstClass {
    /// Simple integer ALU operation (add, compare, logical, copy, select).
    IntAlu,
    /// Integer multiply.
    IntMul,
    /// Integer divide / remainder.
    IntDiv,
    /// Memory load.
    Load,
    /// Memory store.
    Store,
    /// Control transfer (branch, call, return).
    Branch,
    /// Inter-core send.
    Send,
    /// Inter-core receive.
    Recv,
    /// Speculation control (begin/commit/abort).
    Spec,
    /// Remote resteer.
    Resteer,
    /// Everything else (nop).
    Other,
}

impl InstClass {
    /// Number of distinct classes — the length of a dense per-class counter
    /// array indexed by [`InstClass::index`].
    pub const COUNT: usize = 11;

    /// Every class, in [`InstClass::index`] order.
    pub const ALL: [InstClass; InstClass::COUNT] = [
        InstClass::IntAlu,
        InstClass::IntMul,
        InstClass::IntDiv,
        InstClass::Load,
        InstClass::Store,
        InstClass::Branch,
        InstClass::Send,
        InstClass::Recv,
        InstClass::Spec,
        InstClass::Resteer,
        InstClass::Other,
    ];

    /// Dense index of this class, for fixed-size counter arrays.
    #[must_use]
    pub fn index(self) -> usize {
        self as usize
    }
}

impl Inst {
    /// Returns the timing class of this instruction.
    #[must_use]
    pub fn class(&self) -> InstClass {
        match self {
            Inst::Binary { op, .. } => match op {
                BinOp::Mul => InstClass::IntMul,
                BinOp::Div | BinOp::Rem => InstClass::IntDiv,
                _ => InstClass::IntAlu,
            },
            Inst::Copy { .. } | Inst::Select { .. } => InstClass::IntAlu,
            Inst::Load { .. } => InstClass::Load,
            Inst::Store { .. } => InstClass::Store,
            Inst::Call { .. } => InstClass::Branch,
            Inst::Send { .. } => InstClass::Send,
            Inst::Recv { .. } => InstClass::Recv,
            Inst::SpecBegin | Inst::SpecCommit | Inst::SpecAbort | Inst::SpecCheck { .. } => {
                InstClass::Spec
            }
            Inst::Resteer { .. } => InstClass::Resteer,
            Inst::Nop => InstClass::Other,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_binary() -> Inst {
        Inst::Binary {
            op: BinOp::Add,
            dst: Reg(2),
            lhs: Operand::Reg(Reg(0)),
            rhs: Operand::Imm(1),
        }
    }

    #[test]
    fn defs_and_uses() {
        let i = sample_binary();
        assert_eq!(i.def(), Some(Reg(2)));
        assert_eq!(i.uses(), vec![Reg(0)]);

        let st = Inst::Store {
            src: Operand::Reg(Reg(3)),
            addr: Operand::Reg(Reg(4)),
            offset: 1,
        };
        assert_eq!(st.def(), None);
        assert_eq!(st.uses(), vec![Reg(3), Reg(4)]);

        let call = Inst::Call {
            dst: Some(Reg(9)),
            func: FuncId(1),
            args: vec![Operand::Reg(Reg(5)), Operand::Imm(2)],
        };
        assert_eq!(call.def(), Some(Reg(9)));
        assert_eq!(call.uses(), vec![Reg(5)]);
    }

    #[test]
    fn remap_regs_rewrites_all_mentions() {
        let mut i = Inst::Select {
            dst: Reg(1),
            cond: Operand::Reg(Reg(2)),
            if_true: Operand::Reg(Reg(3)),
            if_false: Operand::Imm(0),
        };
        i.remap_regs(|r| Reg(r.0 + 10));
        assert_eq!(
            i,
            Inst::Select {
                dst: Reg(11),
                cond: Operand::Reg(Reg(12)),
                if_true: Operand::Reg(Reg(13)),
                if_false: Operand::Imm(0),
            }
        );
    }

    #[test]
    fn terminator_successors() {
        assert_eq!(
            Terminator::Br(BlockId(3)).successors().as_slice(),
            [BlockId(3)]
        );
        let c = Terminator::CondBr {
            cond: Operand::Reg(Reg(0)),
            then_bb: BlockId(1),
            else_bb: BlockId(2),
        };
        assert_eq!(c.successors().as_slice(), [BlockId(1), BlockId(2)]);
        // By-value and by-reference iteration agree with the slice view.
        assert_eq!(
            c.successors().into_iter().collect::<Vec<_>>(),
            vec![BlockId(1), BlockId(2)]
        );
        let same = Terminator::CondBr {
            cond: Operand::Reg(Reg(0)),
            then_bb: BlockId(1),
            else_bb: BlockId(1),
        };
        assert_eq!(same.successors().as_slice(), [BlockId(1)]);
        assert!(Terminator::Ret { value: None }.successors().is_empty());
    }

    #[test]
    fn inst_class_indices_are_dense_and_unique() {
        let mut seen = [false; InstClass::COUNT];
        for c in InstClass::ALL {
            let i = c.index();
            assert!(i < InstClass::COUNT);
            assert!(!seen[i], "duplicate index for {c:?}");
            seen[i] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn terminator_remapping() {
        let mut t = Terminator::CondBr {
            cond: Operand::Reg(Reg(1)),
            then_bb: BlockId(0),
            else_bb: BlockId(1),
        };
        t.remap_blocks(|b| BlockId(b.0 + 5));
        t.remap_regs(|r| Reg(r.0 + 1));
        assert_eq!(
            t,
            Terminator::CondBr {
                cond: Operand::Reg(Reg(2)),
                then_bb: BlockId(5),
                else_bb: BlockId(6),
            }
        );
    }

    #[test]
    fn instruction_classes() {
        assert_eq!(sample_binary().class(), InstClass::IntAlu);
        assert_eq!(
            Inst::Binary {
                op: BinOp::Mul,
                dst: Reg(0),
                lhs: Operand::Imm(1),
                rhs: Operand::Imm(2)
            }
            .class(),
            InstClass::IntMul
        );
        assert_eq!(
            Inst::Load {
                dst: Reg(0),
                addr: Operand::Imm(0),
                offset: 0
            }
            .class(),
            InstClass::Load
        );
        assert_eq!(Inst::SpecBegin.class(), InstClass::Spec);
        assert_eq!(Inst::Nop.class(), InstClass::Other);
    }
}
