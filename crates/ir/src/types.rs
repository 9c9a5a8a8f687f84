//! Core identifier and operand types of the Spice low-level IR.
//!
//! The IR is a register machine over 64-bit integer words. Pointers are plain
//! word addresses (an `i64` index into the flat word-addressable memory of
//! [`crate::interp::FlatMemory`]), with `0` acting as the null pointer —
//! mirroring the low-level IR the paper's research compiler lowers C into
//! before the Spice transformation runs.

use std::fmt;

use serde::{Deserialize, Serialize};

/// A virtual register.
///
/// Registers are function-local; the register allocator of the paper's
/// backend is irrelevant to the transformation, so the IR keeps an unbounded
/// virtual register file.
///
/// ```
/// use spice_ir::Reg;
/// let r = Reg(3);
/// assert_eq!(r.index(), 3);
/// assert_eq!(format!("{r}"), "r3");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Reg(pub u32);

impl Reg {
    /// Returns the raw index of this register.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// A basic block identifier, local to a [`crate::Function`].
///
/// ```
/// use spice_ir::BlockId;
/// assert_eq!(format!("{}", BlockId(2)), "bb2");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct BlockId(pub u32);

impl BlockId {
    /// Returns the raw index of this block.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bb{}", self.0)
    }
}

/// A function identifier, local to a [`crate::Program`].
///
/// ```
/// use spice_ir::FuncId;
/// assert_eq!(format!("{}", FuncId(0)), "@f0");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct FuncId(pub u32);

impl FuncId {
    /// Returns the raw index of this function.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for FuncId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "@f{}", self.0)
    }
}

/// An operand: either a virtual register or a 64-bit immediate.
///
/// ```
/// use spice_ir::{Operand, Reg};
/// assert_eq!(Operand::from(Reg(1)), Operand::Reg(Reg(1)));
/// assert_eq!(Operand::from(7i64), Operand::Imm(7));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Operand {
    /// The value currently held in a virtual register.
    Reg(Reg),
    /// A constant.
    Imm(i64),
}

impl From<Reg> for Operand {
    fn from(r: Reg) -> Self {
        Operand::Reg(r)
    }
}

impl From<i64> for Operand {
    fn from(v: i64) -> Self {
        Operand::Imm(v)
    }
}

impl fmt::Display for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operand::Reg(r) => write!(f, "{r}"),
            Operand::Imm(v) => write!(f, "{v}"),
        }
    }
}

/// Binary operations of the IR.
///
/// Comparison operators produce `1` for true and `0` for false, as the
/// conditional branch terminator treats any non-zero value as taken.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BinOp {
    /// Wrapping addition.
    Add,
    /// Wrapping subtraction.
    Sub,
    /// Wrapping multiplication.
    Mul,
    /// Signed division. Division by zero traps.
    Div,
    /// Signed remainder. Division by zero traps.
    Rem,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise xor.
    Xor,
    /// Left shift (modulo 64).
    Shl,
    /// Arithmetic right shift (modulo 64).
    Shr,
    /// Equality comparison.
    Eq,
    /// Inequality comparison.
    Ne,
    /// Signed less-than.
    Lt,
    /// Signed less-or-equal.
    Le,
    /// Signed greater-than.
    Gt,
    /// Signed greater-or-equal.
    Ge,
    /// Signed minimum.
    Min,
    /// Signed maximum.
    Max,
}

impl BinOp {
    /// Evaluates the operation on two word values.
    ///
    /// # Errors
    ///
    /// Returns [`TrapKind::DivideByZero`] for `Div`/`Rem` with a zero divisor.
    pub fn eval(self, lhs: i64, rhs: i64) -> Result<i64, TrapKind> {
        Ok(match self {
            BinOp::Add => lhs.wrapping_add(rhs),
            BinOp::Sub => lhs.wrapping_sub(rhs),
            BinOp::Mul => lhs.wrapping_mul(rhs),
            BinOp::Div => {
                if rhs == 0 {
                    return Err(TrapKind::DivideByZero);
                }
                lhs.wrapping_div(rhs)
            }
            BinOp::Rem => {
                if rhs == 0 {
                    return Err(TrapKind::DivideByZero);
                }
                lhs.wrapping_rem(rhs)
            }
            BinOp::And => lhs & rhs,
            BinOp::Or => lhs | rhs,
            BinOp::Xor => lhs ^ rhs,
            BinOp::Shl => lhs.wrapping_shl(rhs as u32 & 63),
            BinOp::Shr => lhs.wrapping_shr(rhs as u32 & 63),
            BinOp::Eq => i64::from(lhs == rhs),
            BinOp::Ne => i64::from(lhs != rhs),
            BinOp::Lt => i64::from(lhs < rhs),
            BinOp::Le => i64::from(lhs <= rhs),
            BinOp::Gt => i64::from(lhs > rhs),
            BinOp::Ge => i64::from(lhs >= rhs),
            BinOp::Min => lhs.min(rhs),
            BinOp::Max => lhs.max(rhs),
        })
    }

    /// Returns `true` if the operation is commutative and associative, which
    /// is what reduction detection requires of an accumulator update.
    #[must_use]
    pub fn is_reduction_op(self) -> bool {
        matches!(
            self,
            BinOp::Add | BinOp::Mul | BinOp::And | BinOp::Or | BinOp::Xor | BinOp::Min | BinOp::Max
        )
    }

    /// Identity element of a reduction operation, if it has one.
    #[must_use]
    pub fn reduction_identity(self) -> Option<i64> {
        match self {
            BinOp::Add | BinOp::Or | BinOp::Xor => Some(0),
            BinOp::Mul => Some(1),
            BinOp::And => Some(-1),
            BinOp::Min => Some(i64::MAX),
            BinOp::Max => Some(i64::MIN),
            _ => None,
        }
    }
}

impl fmt::Display for BinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BinOp::Add => "add",
            BinOp::Sub => "sub",
            BinOp::Mul => "mul",
            BinOp::Div => "div",
            BinOp::Rem => "rem",
            BinOp::And => "and",
            BinOp::Or => "or",
            BinOp::Xor => "xor",
            BinOp::Shl => "shl",
            BinOp::Shr => "shr",
            BinOp::Eq => "eq",
            BinOp::Ne => "ne",
            BinOp::Lt => "lt",
            BinOp::Le => "le",
            BinOp::Gt => "gt",
            BinOp::Ge => "ge",
            BinOp::Min => "min",
            BinOp::Max => "max",
        };
        f.write_str(s)
    }
}

/// Reasons execution of a thread can trap.
///
/// Traps are *not* necessarily fatal to a Spice program: a speculative thread
/// that starts from a stale live-in prediction may chase a dangling pointer
/// and fault (the paper's Figure 6 discussion); the runtime squashes it and
/// rolls its state back instead of aborting the whole machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TrapKind {
    /// A load or store touched an address outside the memory image.
    OutOfBoundsAccess {
        /// The faulting word address.
        addr: i64,
    },
    /// Integer division or remainder by zero.
    DivideByZero,
    /// A call stack grew beyond the configured limit.
    StackOverflow,
    /// The thread executed more instructions than the configured fuel limit.
    OutOfFuel,
    /// An intrinsic was executed in a context that does not support it.
    UnsupportedIntrinsic,
    /// A call referenced an unknown function.
    UnknownFunction,
}

impl fmt::Display for TrapKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrapKind::OutOfBoundsAccess { addr } => {
                write!(f, "out-of-bounds memory access at word address {addr}")
            }
            TrapKind::DivideByZero => f.write_str("integer division by zero"),
            TrapKind::StackOverflow => f.write_str("call stack overflow"),
            TrapKind::OutOfFuel => f.write_str("instruction fuel exhausted"),
            TrapKind::UnsupportedIntrinsic => {
                f.write_str("intrinsic not supported by this execution context")
            }
            TrapKind::UnknownFunction => f.write_str("call to unknown function"),
        }
    }
}

impl std::error::Error for TrapKind {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_forms() {
        assert_eq!(Reg(7).to_string(), "r7");
        assert_eq!(BlockId(0).to_string(), "bb0");
        assert_eq!(FuncId(3).to_string(), "@f3");
        assert_eq!(Operand::Reg(Reg(1)).to_string(), "r1");
        assert_eq!(Operand::Imm(-4).to_string(), "-4");
        assert_eq!(BinOp::Add.to_string(), "add");
    }

    #[test]
    fn binop_arithmetic() {
        assert_eq!(BinOp::Add.eval(2, 3).unwrap(), 5);
        assert_eq!(BinOp::Sub.eval(2, 3).unwrap(), -1);
        assert_eq!(BinOp::Mul.eval(4, 3).unwrap(), 12);
        assert_eq!(BinOp::Div.eval(7, 2).unwrap(), 3);
        assert_eq!(BinOp::Rem.eval(7, 2).unwrap(), 1);
        assert_eq!(BinOp::Min.eval(7, 2).unwrap(), 2);
        assert_eq!(BinOp::Max.eval(7, 2).unwrap(), 7);
        assert_eq!(BinOp::Shl.eval(1, 4).unwrap(), 16);
        assert_eq!(BinOp::Shr.eval(-16, 2).unwrap(), -4);
    }

    #[test]
    fn binop_comparisons_produce_flags() {
        assert_eq!(BinOp::Eq.eval(3, 3).unwrap(), 1);
        assert_eq!(BinOp::Ne.eval(3, 3).unwrap(), 0);
        assert_eq!(BinOp::Lt.eval(2, 3).unwrap(), 1);
        assert_eq!(BinOp::Ge.eval(2, 3).unwrap(), 0);
    }

    #[test]
    fn binop_wrapping_does_not_panic() {
        assert_eq!(BinOp::Add.eval(i64::MAX, 1).unwrap(), i64::MIN);
        assert_eq!(BinOp::Mul.eval(i64::MAX, 2).unwrap(), -2);
        assert_eq!(BinOp::Div.eval(i64::MIN, -1).unwrap(), i64::MIN);
    }

    #[test]
    fn divide_by_zero_traps() {
        assert_eq!(BinOp::Div.eval(1, 0), Err(TrapKind::DivideByZero));
        assert_eq!(BinOp::Rem.eval(1, 0), Err(TrapKind::DivideByZero));
    }

    #[test]
    fn reduction_ops_and_identities() {
        assert!(BinOp::Add.is_reduction_op());
        assert!(BinOp::Min.is_reduction_op());
        assert!(!BinOp::Sub.is_reduction_op());
        assert_eq!(BinOp::Add.reduction_identity(), Some(0));
        assert_eq!(BinOp::Mul.reduction_identity(), Some(1));
        assert_eq!(BinOp::Min.reduction_identity(), Some(i64::MAX));
        assert_eq!(BinOp::Max.reduction_identity(), Some(i64::MIN));
        assert_eq!(BinOp::Sub.reduction_identity(), None);
    }

    #[test]
    fn trap_display() {
        let t = TrapKind::OutOfBoundsAccess { addr: 42 };
        assert!(t.to_string().contains("42"));
        assert!(!TrapKind::DivideByZero.to_string().is_empty());
    }
}
