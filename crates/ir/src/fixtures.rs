//! Small IR programs the test suites of several crates share: linked-list
//! loops over `(weight, next)` node pairs in a `nodes` global and the helper
//! that lays such a list out in memory. Public and ungated so unit tests,
//! integration tests and downstream crates all build the *same* program.

use crate::builder::FunctionBuilder;
use crate::interp::FlatMemory;
use crate::{BinOp, FuncId, Operand, Program};

/// The canonical list-minimum loop (the paper's Figure 1(a) shape) with an
/// argmin payload and a store of it in the exit block. The `nodes` global
/// holds `capacity` nodes. Returns `(program, kernel, nodes, out)`; the
/// kernel takes the list head and returns the minimum weight.
#[must_use]
pub fn list_min_program(capacity: i64) -> (Program, FuncId, i64, i64) {
    let mut program = Program::new();
    let nodes = program.add_global("nodes", capacity * 2);
    let out = program.add_global("out", 1);
    let mut b = FunctionBuilder::new("list_min");
    let head = b.param();
    let pre = b.new_block();
    let header = b.new_block();
    let body = b.new_block();
    let exit = b.new_block();
    let c = b.copy(head);
    let wm = b.copy(i64::MAX);
    let cm = b.copy(0i64);
    b.br(pre);
    b.switch_to(pre);
    b.br(header);
    b.switch_to(header);
    let done = b.binop(BinOp::Eq, c, 0i64);
    b.cond_br(done, exit, body);
    b.switch_to(body);
    let w = b.load(c, 0);
    let better = b.binop(BinOp::Lt, w, wm);
    let nw = b.select(better, w, wm);
    b.copy_into(wm, nw);
    let nc = b.select(better, c, cm);
    b.copy_into(cm, nc);
    let nx = b.load(c, 1);
    b.copy_into(c, nx);
    b.br(header);
    b.switch_to(exit);
    b.store(cm, out, 0);
    b.ret(Some(Operand::Reg(wm)));
    let f = program.add_func(b.finish());
    (program, f, nodes, out)
}

/// A list walk carrying a genuine cross-chunk RAW dependence: visiting node
/// `i` stores `value(i) + 1` into node `i+1`'s value word, which the next
/// iteration then loads. Chunked execution reads stale values unless the
/// conflict subsystem squashes, so a correct sum proves detection and
/// recovery work. Returns `(program, kernel, nodes)`.
#[must_use]
pub fn chained_increment_program(capacity: i64) -> (Program, FuncId, i64) {
    let mut program = Program::new();
    let nodes = program.add_global("nodes", capacity * 2);
    let mut b = FunctionBuilder::new("chained_increment");
    let head = b.param();
    let pre = b.new_block();
    let header = b.new_block();
    let body = b.new_block();
    let poke = b.new_block();
    let advance = b.new_block();
    let exit = b.new_block();
    let c = b.copy(head);
    let sum = b.copy(0i64);
    b.br(pre);
    b.switch_to(pre);
    b.br(header);
    b.switch_to(header);
    let done = b.binop(BinOp::Eq, c, 0i64);
    b.cond_br(done, exit, body);
    b.switch_to(body);
    let v = b.load(c, 0);
    let s = b.binop(BinOp::Add, sum, v);
    b.copy_into(sum, s);
    let n = b.load(c, 1);
    let has_next = b.binop(BinOp::Ne, n, 0i64);
    b.cond_br(has_next, poke, advance);
    b.switch_to(poke);
    let bumped = b.binop(BinOp::Add, v, 1i64);
    b.store(bumped, n, 0);
    b.br(advance);
    b.switch_to(advance);
    b.copy_into(c, n);
    b.br(header);
    b.switch_to(exit);
    b.ret(Some(Operand::Reg(sum)));
    let f = program.add_func(b.finish());
    (program, f, nodes)
}

/// `kernel(head, skip)`: Σ weight over the list, or -1 straight from the
/// entry block when `skip` is set — a path from the entry to a `ret` that
/// never reaches the loop. Returns `(program, kernel, nodes)`.
#[must_use]
pub fn skippable_sum_program(capacity: i64) -> (Program, FuncId, i64) {
    let mut program = Program::new();
    let nodes = program.add_global("nodes", capacity * 2);
    let mut b = FunctionBuilder::new("skippable_sum");
    let (head, skip) = (b.param(), b.param());
    let skipped = b.new_block();
    let pre = b.new_block();
    let header = b.new_block();
    let body = b.new_block();
    let exit = b.new_block();
    let c = b.copy(head);
    let sum = b.copy(0i64);
    b.cond_br(skip, skipped, pre);
    b.switch_to(skipped);
    b.ret(Some(Operand::Imm(-1)));
    b.switch_to(pre);
    b.br(header);
    b.switch_to(header);
    let done = b.binop(BinOp::Eq, c, 0i64);
    b.cond_br(done, exit, body);
    b.switch_to(body);
    let v = b.load(c, 0);
    let s = b.binop(BinOp::Add, sum, v);
    b.copy_into(sum, s);
    let nx = b.load(c, 1);
    b.copy_into(c, nx);
    b.br(header);
    b.switch_to(exit);
    b.ret(Some(Operand::Reg(sum)));
    let f = program.add_func(b.finish());
    (program, f, nodes)
}

/// Lays `weights` out as a singly linked list of consecutive `(weight,
/// next)` pairs starting at `base`, and returns the head address (0 — the
/// null pointer — for an empty list).
///
/// # Panics
///
/// Panics if the list does not fit in `mem`.
pub fn write_list(mem: &mut FlatMemory, base: i64, weights: &[i64]) -> i64 {
    for (i, w) in weights.iter().enumerate() {
        let addr = base + 2 * i as i64;
        let next = if i + 1 < weights.len() { addr + 2 } else { 0 };
        mem.write(addr, *w).expect("list fits in memory");
        mem.write(addr + 1, next).expect("list fits in memory");
    }
    if weights.is_empty() {
        0
    } else {
        base
    }
}
