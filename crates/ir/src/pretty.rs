//! Human-readable printing of IR entities.
//!
//! The textual form is for debugging and documentation only — there is no
//! parser. Example output:
//!
//! ```text
//! func @find_lightest(r0, r1, r2, r3) {
//! bb0:
//!     br bb1
//! bb1:                                    ; header
//!     r4 = eq r0, 0
//!     condbr r4, bb3, bb2
//! ...
//! }
//! ```

use std::fmt;

use crate::function::{Function, Program};
use crate::inst::{Inst, Terminator};
use crate::types::BlockId;

impl fmt::Display for Inst {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Inst::Binary { op, dst, lhs, rhs } => write!(f, "{dst} = {op} {lhs}, {rhs}"),
            Inst::Copy { dst, src } => write!(f, "{dst} = copy {src}"),
            Inst::Select {
                dst,
                cond,
                if_true,
                if_false,
            } => write!(f, "{dst} = select {cond}, {if_true}, {if_false}"),
            Inst::Load { dst, addr, offset } => write!(f, "{dst} = load [{addr} + {offset}]"),
            Inst::Store { src, addr, offset } => write!(f, "store {src}, [{addr} + {offset}]"),
            Inst::Call { dst, func, args } => {
                if let Some(d) = dst {
                    write!(f, "{d} = call {func}(")?;
                } else {
                    write!(f, "call {func}(")?;
                }
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, ")")
            }
            Inst::Send { chan, value } => write!(f, "send ch{chan}, {value}"),
            Inst::Recv { dst, chan } => write!(f, "{dst} = recv ch{chan}"),
            Inst::SpecBegin => f.write_str("spec.begin"),
            Inst::SpecCommit => f.write_str("spec.commit"),
            Inst::SpecAbort => f.write_str("spec.abort"),
            Inst::SpecCheck { dst, core } => write!(f, "{dst} = spec.check core {core}"),
            Inst::Resteer { core, target } => write!(f, "resteer core {core}, {target}"),
            Inst::Nop => f.write_str("nop"),
        }
    }
}

impl fmt::Display for Terminator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Terminator::Br(t) => write!(f, "br {t}"),
            Terminator::CondBr {
                cond,
                then_bb,
                else_bb,
            } => write!(f, "condbr {cond}, {then_bb}, {else_bb}"),
            Terminator::Ret { value: Some(v) } => write!(f, "ret {v}"),
            Terminator::Ret { value: None } => f.write_str("ret"),
            Terminator::Unreachable => f.write_str("unreachable"),
        }
    }
}

impl fmt::Display for Function {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "func @{}(", self.name)?;
        for (i, p) in self.params.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{p}")?;
        }
        writeln!(f, ") {{")?;
        for (id, block) in self.iter_blocks() {
            let marker = if id == self.entry { " ; entry" } else { "" };
            match &block.label {
                Some(l) => writeln!(f, "{id}:{marker}                ; {l}")?,
                None => writeln!(f, "{id}:{marker}")?,
            }
            for inst in &block.insts {
                writeln!(f, "    {inst}")?;
            }
            writeln!(f, "    {}", block.terminator)?;
        }
        writeln!(f, "}}")
    }
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for g in &self.globals {
            writeln!(f, "global @{} : {} words @ {}", g.name, g.words, g.base)?;
        }
        if !self.globals.is_empty() {
            writeln!(f)?;
        }
        for (i, func) in self.funcs.iter().enumerate() {
            if i > 0 {
                writeln!(f)?;
            }
            write!(f, "; {}\n{func}", BlockId(0).index() + i)?;
        }
        Ok(())
    }
}

/// Renders one block of `func` as an indented diagnostic listing, pointing
/// an arrow at instruction `highlight` when given (the terminator counts as
/// instruction index `insts.len()`). Used by `VerifyError::render` and
/// `LintError::render` to produce compiler-style context.
///
/// ```text
///   --> @find_lightest, bb2 (body)
///    |     r5 = load [r0 + 0]
///    |---> store r6, [r1 + 0]
///    |     br bb1
/// ```
#[must_use]
pub fn block_listing(func: &Function, block: BlockId, highlight: Option<usize>) -> String {
    if block.index() >= func.blocks.len() {
        return format!("  --> @{}, {block} (block does not exist)\n", func.name);
    }
    let b = func.block(block);
    let mut out = match &b.label {
        Some(l) => format!("  --> @{}, {block} ({l})\n", func.name),
        None => format!("  --> @{}, {block}\n", func.name),
    };
    let prefix = |ip: usize| {
        if highlight == Some(ip) {
            "   |---> "
        } else {
            "   |     "
        }
    };
    for (ip, inst) in b.insts.iter().enumerate() {
        out.push_str(prefix(ip));
        out.push_str(&inst.to_string());
        out.push('\n');
    }
    out.push_str(prefix(b.insts.len()));
    out.push_str(&b.terminator.to_string());
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::types::{BinOp, Operand, Reg};

    #[test]
    fn instruction_rendering() {
        let i = Inst::Binary {
            op: BinOp::Add,
            dst: Reg(3),
            lhs: Operand::Reg(Reg(1)),
            rhs: Operand::Imm(4),
        };
        assert_eq!(i.to_string(), "r3 = add r1, 4");
        assert_eq!(
            Inst::Load {
                dst: Reg(0),
                addr: Operand::Reg(Reg(1)),
                offset: 2
            }
            .to_string(),
            "r0 = load [r1 + 2]"
        );
        assert_eq!(Inst::SpecCommit.to_string(), "spec.commit");
        assert_eq!(
            Terminator::CondBr {
                cond: Operand::Reg(Reg(9)),
                then_bb: BlockId(1),
                else_bb: BlockId(2)
            }
            .to_string(),
            "condbr r9, bb1, bb2"
        );
    }

    #[test]
    fn function_rendering_contains_blocks_and_labels() {
        let mut b = FunctionBuilder::new("f");
        let x = b.param();
        let exit = b.new_labeled_block("exit");
        b.br(exit);
        b.switch_to(exit);
        b.ret(Some(Operand::Reg(x)));
        let s = b.finish().to_string();
        assert!(s.contains("func @f(r0)"));
        assert!(s.contains("bb1:"));
        assert!(s.contains("; exit"));
        assert!(s.contains("ret r0"));
    }

    #[test]
    fn program_rendering_lists_globals() {
        let mut p = crate::Program::new();
        p.add_global("sva", 8);
        let mut b = FunctionBuilder::new("main");
        b.ret(None);
        p.add_func(b.finish());
        let s = p.to_string();
        assert!(s.contains("global @sva : 8 words"));
        assert!(s.contains("func @main"));
    }
}
