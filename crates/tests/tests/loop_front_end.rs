//! The one loop front end, seen from both Spice backends: the simulator
//! backend (which generates code from `derive_loop_spec`'s description) and
//! the native-thread backend (which interprets it) must agree on which
//! loops are chunkable — same `BackendError` for the same malformed loop —
//! and on what a committed chunk hands back and how it folds.

use spice_bench::experiments::all_workload_factories;
use spice_core::backend::SimBackend;
use spice_ir::builder::FunctionBuilder;
use spice_ir::exec::{derive_loop_spec, BackendError, ExecutionBackend, LoadOptions, SpecError};
use spice_ir::{BinOp, FuncId, Operand, Program};
use spice_runtime::NativeLoopBackend;
use spice_workloads::workload_load_options;

fn program_of(b: FunctionBuilder) -> (Program, FuncId) {
    let mut program = Program::new();
    let f = program.add_func(b.finish());
    (program, f)
}

fn no_loop() -> (Program, FuncId) {
    let mut b = FunctionBuilder::new("no_loop");
    b.ret(None);
    program_of(b)
}

/// The header has two predecessors outside the loop.
fn no_unique_preheader() -> (Program, FuncId) {
    let mut b = FunctionBuilder::new("no_preheader");
    let x = b.param();
    let p1 = b.new_block();
    let p2 = b.new_block();
    let header = b.new_block();
    let exit = b.new_block();
    b.cond_br(x, p1, p2);
    b.switch_to(p1);
    b.br(header);
    b.switch_to(p2);
    b.br(header);
    b.switch_to(header);
    let c = b.binop(BinOp::Sub, x, 1i64);
    b.copy_into(x, c);
    b.cond_br(x, header, exit);
    b.switch_to(exit);
    b.ret(None);
    program_of(b)
}

/// A list walk that also leaves from its body on a negative weight.
fn two_exit_edges() -> (Program, FuncId) {
    let mut b = FunctionBuilder::new("two_exits");
    let c = b.param();
    let pre = b.new_block();
    let header = b.new_block();
    let body = b.new_block();
    let latch = b.new_block();
    let exit = b.new_block();
    b.br(pre);
    b.switch_to(pre);
    b.br(header);
    b.switch_to(header);
    let done = b.binop(BinOp::Eq, c, 0i64);
    b.cond_br(done, exit, body);
    b.switch_to(body);
    let w = b.load(c, 0);
    let negative = b.binop(BinOp::Lt, w, 0i64);
    b.cond_br(negative, exit, latch);
    b.switch_to(latch);
    let next = b.load(c, 1);
    b.copy_into(c, next);
    b.br(header);
    b.switch_to(exit);
    b.ret(Some(Operand::Reg(c)));
    program_of(b)
}

/// `loop { v = *p; if v == 0 { break } sum += v }`: the only carried
/// live-in is the sum, a reduction — nothing is left to speculate.
fn reduction_only() -> (Program, FuncId) {
    let mut b = FunctionBuilder::new("reduction_only");
    let p = b.param();
    let sum = b.copy(0i64);
    let pre = b.new_block();
    let header = b.new_block();
    let body = b.new_block();
    let exit = b.new_block();
    b.br(pre);
    b.switch_to(pre);
    b.br(header);
    b.switch_to(header);
    let v = b.load(p, 0);
    let done = b.binop(BinOp::Eq, v, 0i64);
    b.cond_br(done, exit, body);
    b.switch_to(body);
    let s = b.binop(BinOp::Add, sum, v);
    b.copy_into(sum, s);
    b.br(header);
    b.switch_to(exit);
    b.ret(Some(Operand::Reg(sum)));
    program_of(b)
}

#[test]
fn both_backends_reject_the_same_loops_with_the_same_error() {
    let shapes = [
        (no_loop(), SpecError::NoSuchLoop),
        (no_unique_preheader(), SpecError::NoPreheader),
        (two_exit_edges(), SpecError::MultipleExits),
        (reduction_only(), SpecError::NothingToSpeculate),
    ];
    for ((program, f), expected) in shapes {
        let options = LoadOptions::new(64, None);
        let sim = SimBackend::tiny(2)
            .load(program.clone(), f, options)
            .unwrap_err();
        let native = NativeLoopBackend::new(2)
            .load(program, f, options)
            .unwrap_err();
        assert_eq!(sim, native, "{expected:?}: the backends disagree");
        assert_eq!(sim, BackendError::Spec(expected));
    }
}

#[test]
fn the_transformed_loop_communicates_the_groups_the_native_backend_folds_by() {
    for (name, factory) in all_workload_factories(true) {
        let mut wl = factory();
        let built = wl.build();
        let spec = derive_loop_spec(&built.program, built.kernel, built.loop_header_hint)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(!spec.liveouts.is_empty(), "{name}: nothing to hand back");
        let options = workload_load_options(wl.as_ref(), &built);
        let mut sim = SimBackend::tiny(4);
        sim.load(built.program, built.kernel, options)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        let spice = sim.runner().expect("a Spice preparation").spice();
        assert_eq!(spice.liveouts, spec.liveouts, "{name}");
    }
}
