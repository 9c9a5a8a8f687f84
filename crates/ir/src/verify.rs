//! Structural verification of functions and programs.
//!
//! The verifier catches the mistakes a transformation is most likely to make
//! when splicing blocks between functions: dangling block targets, registers
//! used before any definition, unfinished (unreachable) terminators on
//! reachable blocks, and calls with the wrong arity.

use std::fmt;

use crate::cfg::Cfg;
use crate::dataflow::{solve, Analysis, Direction, RegSet};
use crate::function::{Function, Program};
use crate::inst::{Inst, Terminator};
use crate::types::{BlockId, FuncId, Reg};

/// A single verification failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VerifyError {
    /// A terminator targets a block that does not exist.
    DanglingBlockTarget {
        /// Function being verified.
        func: String,
        /// Block containing the bad terminator.
        block: BlockId,
        /// The missing target.
        target: BlockId,
    },
    /// A reachable block still has the builder's placeholder terminator.
    UnfinishedBlock {
        /// Function being verified.
        func: String,
        /// The offending block.
        block: BlockId,
    },
    /// A register is referenced but was never created by the function.
    RegisterOutOfRange {
        /// Function being verified.
        func: String,
        /// The offending register.
        reg: Reg,
    },
    /// A register may be read before it is written on some path.
    UseBeforeDef {
        /// Function being verified.
        func: String,
        /// The offending register.
        reg: Reg,
        /// Block where the questionable use occurs.
        block: BlockId,
    },
    /// A call references a function id that does not exist in the program.
    UnknownCallee {
        /// Function being verified.
        func: String,
        /// The missing callee.
        callee: FuncId,
    },
    /// A call passes the wrong number of arguments.
    CallArityMismatch {
        /// Function being verified.
        func: String,
        /// The callee.
        callee: FuncId,
        /// Arguments passed.
        passed: usize,
        /// Parameters expected.
        expected: usize,
    },
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerifyError::DanglingBlockTarget {
                func,
                block,
                target,
            } => write!(f, "{func}: {block} branches to missing block {target}"),
            VerifyError::UnfinishedBlock { func, block } => {
                write!(f, "{func}: reachable block {block} has no terminator")
            }
            VerifyError::RegisterOutOfRange { func, reg } => {
                write!(f, "{func}: register {reg} was never allocated")
            }
            VerifyError::UseBeforeDef { func, reg, block } => {
                write!(
                    f,
                    "{func}: register {reg} may be used before definition in {block}"
                )
            }
            VerifyError::UnknownCallee { func, callee } => {
                write!(f, "{func}: call to unknown function {callee}")
            }
            VerifyError::CallArityMismatch {
                func,
                callee,
                passed,
                expected,
            } => write!(
                f,
                "{func}: call to {callee} passes {passed} arguments, expected {expected}"
            ),
        }
    }
}

impl std::error::Error for VerifyError {}

impl VerifyError {
    /// The name of the function the error points into.
    #[must_use]
    pub fn func_name(&self) -> &str {
        match self {
            VerifyError::DanglingBlockTarget { func, .. }
            | VerifyError::UnfinishedBlock { func, .. }
            | VerifyError::RegisterOutOfRange { func, .. }
            | VerifyError::UseBeforeDef { func, .. }
            | VerifyError::UnknownCallee { func, .. }
            | VerifyError::CallArityMismatch { func, .. } => func,
        }
    }

    /// The block the error points at, if any.
    #[must_use]
    pub fn block(&self) -> Option<BlockId> {
        match self {
            VerifyError::DanglingBlockTarget { block, .. }
            | VerifyError::UnfinishedBlock { block, .. }
            | VerifyError::UseBeforeDef { block, .. } => Some(*block),
            _ => None,
        }
    }

    /// Renders the error as a compiler-style diagnostic, quoting the
    /// offending block and pointing at the first implicated instruction
    /// (the questionable use for [`VerifyError::UseBeforeDef`], the
    /// terminator for [`VerifyError::DanglingBlockTarget`]).
    #[must_use]
    pub fn render(&self, program: &Program) -> String {
        let mut out = format!("error[verify]: {self}\n");
        let Some(fid) = program.func_by_name(self.func_name()) else {
            return out;
        };
        let func = program.func(fid);
        if let Some(block) = self.block() {
            let highlight = match self {
                VerifyError::DanglingBlockTarget { .. } => Some(func.block(block).insts.len()),
                VerifyError::UseBeforeDef { reg, .. } => func
                    .block(block)
                    .insts
                    .iter()
                    .position(|i| i.uses().contains(reg))
                    .or(Some(func.block(block).insts.len())),
                _ => None,
            };
            out.push_str(&crate::pretty::block_listing(func, block, highlight));
        }
        out
    }
}

/// Definite assignment, the forward instance of the [`crate::dataflow`]
/// framework: the registers written on every path to a point. Parameters
/// are assigned on entry; the join is intersection, so a block no path has
/// reached yet holds every register.
struct DefinitelyAssigned {
    regs: usize,
}

impl Analysis for DefinitelyAssigned {
    type Fact = RegSet;

    fn direction(&self) -> Direction {
        Direction::Forward
    }

    fn boundary_fact(&self, func: &Function) -> RegSet {
        RegSet::from_regs(self.regs, func.params.iter().copied())
    }

    fn empty_fact(&self) -> RegSet {
        RegSet::full(self.regs)
    }

    fn join(&self, into: &mut RegSet, from: &RegSet) -> bool {
        into.intersect_with(from)
    }

    fn transfer(&self, func: &Function, block: BlockId, fact: &mut RegSet) {
        for d in func.block(block).insts.iter().filter_map(Inst::def) {
            fact.insert(d);
        }
    }
}

/// Verifies a single function (ignoring inter-function properties).
///
/// # Errors
///
/// Returns every problem found; an empty `Ok(())` means the function is
/// structurally sound.
pub fn verify_function(func: &Function) -> Result<(), Vec<VerifyError>> {
    let mut errors = Vec::new();
    let nblocks = func.blocks.len();
    let nregs = func.reg_count() as u32;

    let check_reg = |r: Reg, errors: &mut Vec<VerifyError>| {
        if r.0 >= nregs {
            errors.push(VerifyError::RegisterOutOfRange {
                func: func.name.clone(),
                reg: r,
            });
        }
    };

    for (id, block) in func.iter_blocks() {
        for inst in &block.insts {
            for r in inst.uses() {
                check_reg(r, &mut errors);
            }
            if let Some(d) = inst.def() {
                check_reg(d, &mut errors);
            }
        }
        for t in block.terminator.successors() {
            if t.index() >= nblocks {
                errors.push(VerifyError::DanglingBlockTarget {
                    func: func.name.clone(),
                    block: id,
                    target: t,
                });
            }
        }
        for r in block.terminator.uses() {
            check_reg(r, &mut errors);
        }
    }

    // The remaining checks need a well-formed CFG; bail out if branch
    // targets dangle.
    if errors
        .iter()
        .any(|e| matches!(e, VerifyError::DanglingBlockTarget { .. }))
    {
        return Err(errors);
    }

    let cfg = Cfg::new(func);
    for (id, block) in func.iter_blocks() {
        if cfg.is_reachable(id) && block.terminator == Terminator::Unreachable {
            errors.push(VerifyError::UnfinishedBlock {
                func: func.name.clone(),
                block: id,
            });
        }
    }

    // Conservative use-before-def: a read of a register that is not
    // definitely assigned — written on every path from the entry, with
    // parameters assigned on entry — is flagged once per block, in block
    // order and, within a block, at its first questionable read.
    let assigned = solve(
        &DefinitelyAssigned {
            regs: nregs as usize,
        },
        func,
        &cfg,
    );
    let mut have = RegSet::default();
    let mut reported = RegSet::empty(nregs as usize);
    let mut uses = Vec::new();
    for (id, block) in func.iter_blocks() {
        if !cfg.is_reachable(id) {
            continue;
        }
        have.clone_from(&assigned.block_in[id.index()]);
        reported.clear();
        let mut check = |uses: &[Reg], have: &RegSet, errors: &mut Vec<VerifyError>| {
            for &r in uses {
                if r.0 < nregs && !have.contains(r) && reported.insert(r) {
                    errors.push(VerifyError::UseBeforeDef {
                        func: func.name.clone(),
                        reg: r,
                        block: id,
                    });
                }
            }
        };
        for inst in &block.insts {
            uses.clear();
            inst.uses_into(&mut uses);
            check(&uses, &have, &mut errors);
            if let Some(d) = inst.def() {
                have.insert(d);
            }
        }
        check(&block.terminator.uses(), &have, &mut errors);
    }

    if errors.is_empty() {
        Ok(())
    } else {
        Err(errors)
    }
}

/// Verifies every function of a program plus inter-function properties
/// (callee existence and arity).
///
/// # Errors
///
/// Returns every problem found across all functions.
pub fn verify_program(program: &Program) -> Result<(), Vec<VerifyError>> {
    let mut errors = Vec::new();
    for func in &program.funcs {
        if let Err(mut e) = verify_function(func) {
            errors.append(&mut e);
        }
        for block in &func.blocks {
            for inst in &block.insts {
                if let Inst::Call {
                    func: callee, args, ..
                } = inst
                {
                    if callee.index() >= program.funcs.len() {
                        errors.push(VerifyError::UnknownCallee {
                            func: func.name.clone(),
                            callee: *callee,
                        });
                    } else {
                        let expected = program.func(*callee).params.len();
                        if expected != args.len() {
                            errors.push(VerifyError::CallArityMismatch {
                                func: func.name.clone(),
                                callee: *callee,
                                passed: args.len(),
                                expected,
                            });
                        }
                    }
                }
            }
        }
    }
    if errors.is_empty() {
        Ok(())
    } else {
        Err(errors)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::types::{BinOp, Operand};

    #[test]
    fn well_formed_function_passes() {
        let mut b = FunctionBuilder::new("ok");
        let x = b.param();
        let y = b.binop(BinOp::Add, x, 1i64);
        b.ret(Some(Operand::Reg(y)));
        assert!(verify_function(&b.finish()).is_ok());
    }

    #[test]
    fn dangling_target_is_reported() {
        let mut f = Function::new("bad");
        f.block_mut(BlockId(0)).terminator = Terminator::Br(BlockId(7));
        let errs = verify_function(&f).unwrap_err();
        assert!(errs
            .iter()
            .any(|e| matches!(e, VerifyError::DanglingBlockTarget { target, .. } if *target == BlockId(7))));
    }

    #[test]
    fn unfinished_reachable_block_is_reported() {
        let mut b = FunctionBuilder::new("unfinished");
        let other = b.new_block();
        b.br(other);
        // `other` never gets a terminator.
        let errs = verify_function(&b.finish()).unwrap_err();
        assert!(errs
            .iter()
            .any(|e| matches!(e, VerifyError::UnfinishedBlock { block, .. } if *block == other)));
    }

    #[test]
    fn unreachable_unfinished_block_is_allowed() {
        let mut b = FunctionBuilder::new("deadblock");
        let _dead = b.new_block();
        b.ret(None);
        assert!(verify_function(&b.finish()).is_ok());
    }

    #[test]
    fn use_before_def_is_reported() {
        let mut f = Function::new("ubd");
        let r = f.fresh_reg();
        let dst = f.fresh_reg();
        f.block_mut(BlockId(0)).insts.push(Inst::Copy {
            dst,
            src: Operand::Reg(r),
        });
        f.block_mut(BlockId(0)).terminator = Terminator::Ret { value: None };
        let errs = verify_function(&f).unwrap_err();
        assert!(errs
            .iter()
            .any(|e| matches!(e, VerifyError::UseBeforeDef { reg, .. } if *reg == r)));
    }

    #[test]
    fn register_out_of_range_is_reported() {
        let mut f = Function::new("range");
        f.block_mut(BlockId(0)).insts.push(Inst::Copy {
            dst: Reg(99),
            src: Operand::Imm(0),
        });
        f.block_mut(BlockId(0)).terminator = Terminator::Ret { value: None };
        let errs = verify_function(&f).unwrap_err();
        assert!(errs
            .iter()
            .any(|e| matches!(e, VerifyError::RegisterOutOfRange { reg, .. } if *reg == Reg(99))));
    }

    #[test]
    fn call_arity_checked_at_program_level() {
        let mut p = Program::new();
        let mut cb = FunctionBuilder::new("callee");
        let _x = cb.param();
        cb.ret(None);
        let callee = p.add_func(cb.finish());

        let mut mb = FunctionBuilder::new("main");
        mb.call_void(callee, vec![]); // missing argument
        mb.ret(None);
        p.add_func(mb.finish());

        let errs = verify_program(&p).unwrap_err();
        assert!(errs.iter().any(|e| matches!(
            e,
            VerifyError::CallArityMismatch {
                expected: 1,
                passed: 0,
                ..
            }
        )));
    }

    #[test]
    fn unknown_callee_reported() {
        let mut p = Program::new();
        let mut mb = FunctionBuilder::new("main");
        mb.call_void(FuncId(9), vec![]);
        mb.ret(None);
        p.add_func(mb.finish());
        let errs = verify_program(&p).unwrap_err();
        assert!(errs.iter().any(
            |e| matches!(e, VerifyError::UnknownCallee { callee, .. } if *callee == FuncId(9))
        ));
    }

    #[test]
    fn error_messages_are_nonempty() {
        let e = VerifyError::UnknownCallee {
            func: "f".into(),
            callee: FuncId(1),
        };
        assert!(!e.to_string().is_empty());
    }

    #[test]
    fn diamond_assignment_meets_conservatively() {
        // A register assigned on only one arm of a diamond and used at the
        // join must be flagged.
        let mut b = FunctionBuilder::new("diamond_ubd");
        let cond = b.param();
        let val = b.fresh();
        let a = b.new_block();
        let c = b.new_block();
        let join = b.new_block();
        b.cond_br(cond, a, c);
        b.switch_to(a);
        b.copy_into(val, 1i64);
        b.br(join);
        b.switch_to(c);
        b.br(join);
        b.switch_to(join);
        b.ret(Some(Operand::Reg(val)));
        let errs = verify_function(&b.finish()).unwrap_err();
        assert!(errs
            .iter()
            .any(|e| matches!(e, VerifyError::UseBeforeDef { reg, .. } if *reg == val)));
    }
}
