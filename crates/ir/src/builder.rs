//! An ergonomic builder for constructing IR functions.
//!
//! The builder keeps a *current block* cursor and offers one method per
//! instruction kind, returning the destination register where applicable so
//! that code generation reads close to the pseudo-code in the paper:
//!
//! ```
//! use spice_ir::builder::FunctionBuilder;
//! use spice_ir::{BinOp, Operand};
//!
//! // while (c != 0) { sum += mem[c]; c = mem[c + 1]; }
//! let mut b = FunctionBuilder::new("list_sum");
//! let c = b.param();
//! let sum = b.copy(0i64);
//! let header = b.new_block();
//! let body = b.new_block();
//! let exit = b.new_block();
//! b.br(header);
//! b.switch_to(header);
//! let done = b.binop(BinOp::Eq, c, 0i64);
//! b.cond_br(done, exit, body);
//! b.switch_to(body);
//! let v = b.load(c, 0);
//! let new_sum = b.binop(BinOp::Add, sum, v);
//! b.copy_into(sum, new_sum);
//! let next = b.load(c, 1);
//! b.copy_into(c, next);
//! b.br(header);
//! b.switch_to(exit);
//! b.ret(Some(Operand::Reg(sum)));
//! let f = b.finish();
//! assert_eq!(f.name, "list_sum");
//! ```

use crate::function::{Block, Function};
use crate::inst::{Inst, Terminator};
use crate::types::{BinOp, BlockId, FuncId, Operand, Reg};

/// Builder for a single [`Function`]. See the [module documentation]
/// (self) for an example.
#[derive(Debug)]
pub struct FunctionBuilder {
    func: Function,
    current: BlockId,
}

impl FunctionBuilder {
    /// Creates a builder whose cursor is at the function's entry block.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        let func = Function::new(name);
        FunctionBuilder {
            current: func.entry,
            func,
        }
    }

    /// Declares a new parameter register.
    pub fn param(&mut self) -> Reg {
        let r = self.func.fresh_reg();
        self.func.params.push(r);
        r
    }

    /// Allocates a fresh register without emitting anything.
    pub fn fresh(&mut self) -> Reg {
        self.func.fresh_reg()
    }

    /// Creates a new (empty, unreachable) block and returns its id; the
    /// cursor does not move.
    pub fn new_block(&mut self) -> BlockId {
        self.func.add_block()
    }

    /// Creates a new labeled block.
    pub fn new_labeled_block(&mut self, label: impl Into<String>) -> BlockId {
        self.func.add_labeled_block(label)
    }

    /// Moves the cursor to `block`.
    pub fn switch_to(&mut self, block: BlockId) {
        self.current = block;
    }

    /// Returns the block the cursor is currently appending to.
    #[must_use]
    pub fn current_block(&self) -> BlockId {
        self.current
    }

    /// Returns the entry block id.
    #[must_use]
    pub fn entry(&self) -> BlockId {
        self.func.entry
    }

    fn cur(&mut self) -> &mut Block {
        self.func.block_mut(self.current)
    }

    /// Appends a raw instruction at the cursor.
    pub fn push(&mut self, inst: Inst) {
        self.cur().insts.push(inst);
    }

    /// Emits `dst = op(lhs, rhs)` into a fresh register.
    pub fn binop(&mut self, op: BinOp, lhs: impl Into<Operand>, rhs: impl Into<Operand>) -> Reg {
        let dst = self.func.fresh_reg();
        self.binop_into(op, dst, lhs, rhs);
        dst
    }

    /// Emits `dst = op(lhs, rhs)` into an existing register.
    pub fn binop_into(
        &mut self,
        op: BinOp,
        dst: Reg,
        lhs: impl Into<Operand>,
        rhs: impl Into<Operand>,
    ) {
        let inst = Inst::Binary {
            op,
            dst,
            lhs: lhs.into(),
            rhs: rhs.into(),
        };
        self.push(inst);
    }

    /// Emits a copy into a fresh register.
    pub fn copy(&mut self, src: impl Into<Operand>) -> Reg {
        let dst = self.func.fresh_reg();
        let inst = Inst::Copy {
            dst,
            src: src.into(),
        };
        self.push(inst);
        dst
    }

    /// Emits a copy into an existing register.
    pub fn copy_into(&mut self, dst: Reg, src: impl Into<Operand>) {
        let inst = Inst::Copy {
            dst,
            src: src.into(),
        };
        self.push(inst);
    }

    /// Emits a select into a fresh register.
    pub fn select(
        &mut self,
        cond: impl Into<Operand>,
        if_true: impl Into<Operand>,
        if_false: impl Into<Operand>,
    ) -> Reg {
        let dst = self.func.fresh_reg();
        let inst = Inst::Select {
            dst,
            cond: cond.into(),
            if_true: if_true.into(),
            if_false: if_false.into(),
        };
        self.push(inst);
        dst
    }

    /// Emits a load into a fresh register.
    pub fn load(&mut self, addr: impl Into<Operand>, offset: i64) -> Reg {
        let dst = self.func.fresh_reg();
        let inst = Inst::Load {
            dst,
            addr: addr.into(),
            offset,
        };
        self.push(inst);
        dst
    }

    /// Emits a load into an existing register.
    pub fn load_into(&mut self, dst: Reg, addr: impl Into<Operand>, offset: i64) {
        let inst = Inst::Load {
            dst,
            addr: addr.into(),
            offset,
        };
        self.push(inst);
    }

    /// Emits a store.
    pub fn store(&mut self, src: impl Into<Operand>, addr: impl Into<Operand>, offset: i64) {
        let inst = Inst::Store {
            src: src.into(),
            addr: addr.into(),
            offset,
        };
        self.push(inst);
    }

    /// Emits a call whose return value is captured in a fresh register.
    pub fn call(&mut self, func: FuncId, args: Vec<Operand>) -> Reg {
        let dst = self.func.fresh_reg();
        self.push(Inst::Call {
            dst: Some(dst),
            func,
            args,
        });
        dst
    }

    /// Emits a call that ignores any return value.
    pub fn call_void(&mut self, func: FuncId, args: Vec<Operand>) {
        self.push(Inst::Call {
            dst: None,
            func,
            args,
        });
    }

    /// Emits a channel send.
    pub fn send(&mut self, chan: impl Into<Operand>, value: impl Into<Operand>) {
        self.push(Inst::Send {
            chan: chan.into(),
            value: value.into(),
        });
    }

    /// Emits a blocking channel receive into a fresh register.
    pub fn recv(&mut self, chan: impl Into<Operand>) -> Reg {
        let dst = self.func.fresh_reg();
        self.push(Inst::Recv {
            dst,
            chan: chan.into(),
        });
        dst
    }

    /// Emits a blocking channel receive into an existing register.
    pub fn recv_into(&mut self, dst: Reg, chan: impl Into<Operand>) {
        self.push(Inst::Recv {
            dst,
            chan: chan.into(),
        });
    }

    /// Emits a conflict-detection query for the thread on `core` into a
    /// fresh register (1 = its speculative read set conflicts with writes
    /// committed earlier in this invocation).
    pub fn spec_check(&mut self, core: impl Into<Operand>) -> Reg {
        let dst = self.func.fresh_reg();
        self.push(Inst::SpecCheck {
            dst,
            core: core.into(),
        });
        dst
    }

    /// Terminates the current block with an unconditional branch.
    pub fn br(&mut self, target: BlockId) {
        self.cur().terminator = Terminator::Br(target);
    }

    /// Terminates the current block with a conditional branch.
    pub fn cond_br(&mut self, cond: impl Into<Operand>, then_bb: BlockId, else_bb: BlockId) {
        self.cur().terminator = Terminator::CondBr {
            cond: cond.into(),
            then_bb,
            else_bb,
        };
    }

    /// Terminates the current block with a return.
    pub fn ret(&mut self, value: Option<Operand>) {
        self.cur().terminator = Terminator::Ret { value };
    }

    /// Consumes the builder and returns the finished function.
    #[must_use]
    pub fn finish(self) -> Function {
        self.func
    }

    /// Gives direct access to the function under construction (for passes
    /// that need to splice blocks, e.g. the Spice transformation).
    pub fn func_mut(&mut self) -> &mut Function {
        &mut self.func
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::{run_function, FlatMemory};
    use crate::Program;

    /// Builds the module-level example and checks it sums a list.
    #[test]
    fn doc_example_executes() {
        let mut b = FunctionBuilder::new("list_sum");
        let c = b.param();
        let sum = b.copy(0i64);
        let header = b.new_block();
        let body = b.new_block();
        let exit = b.new_block();
        b.br(header);
        b.switch_to(header);
        let done = b.binop(BinOp::Eq, c, 0i64);
        b.cond_br(done, exit, body);
        b.switch_to(body);
        let v = b.load(c, 0);
        let new_sum = b.binop(BinOp::Add, sum, v);
        b.copy_into(sum, new_sum);
        let next = b.load(c, 1);
        b.copy_into(c, next);
        b.br(header);
        b.switch_to(exit);
        b.ret(Some(Operand::Reg(sum)));

        let mut p = Program::new();
        let f = p.add_func(b.finish());
        // List nodes at 2000: (5, ->2010), 2010: (7, ->0)
        let mut mem = FlatMemory::new(4096);
        mem.write(2000, 5).unwrap();
        mem.write(2001, 2010).unwrap();
        mem.write(2010, 7).unwrap();
        mem.write(2011, 0).unwrap();
        let out = run_function(&p, f, &[2000], &mut mem).unwrap();
        assert_eq!(out.return_value, Some(12));
    }

    #[test]
    fn cursor_moves_between_blocks() {
        let mut b = FunctionBuilder::new("f");
        assert_eq!(b.current_block(), b.entry());
        let other = b.new_labeled_block("other");
        b.br(other);
        b.switch_to(other);
        assert_eq!(b.current_block(), other);
        b.ret(None);
        let f = b.finish();
        assert_eq!(f.block(other).label.as_deref(), Some("other"));
        assert_eq!(f.block(f.entry).terminator, Terminator::Br(other));
    }

    #[test]
    fn params_are_registered_in_order() {
        let mut b = FunctionBuilder::new("f");
        let p0 = b.param();
        let p1 = b.param();
        b.ret(None);
        let f = b.finish();
        assert_eq!(f.params, vec![p0, p1]);
    }

    #[test]
    fn push_emits_into_current_block() {
        let mut b = FunctionBuilder::new("f");
        let r = b.copy(3i64);
        let s = b.select(r, 10i64, 20i64);
        b.store(s, 100i64, 0);
        b.ret(None);
        let f = b.finish();
        assert_eq!(f.block(f.entry).insts.len(), 3);
    }
}
