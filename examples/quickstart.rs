//! Quickstart: build the paper's Figure 1(a) loop by hand, Spice it with two
//! threads, and compare simulated cycles against single-threaded execution.
//!
//! Run with: `cargo run --example quickstart`

use spice_core::analysis::derive_loop_spec;
use spice_core::pipeline::SpiceRunner;
use spice_core::transform::{SpiceOptions, SpiceTransform};
use spice_ir::builder::FunctionBuilder;
use spice_ir::{BinOp, FuncId, Operand, Program};
use spice_sim::{Machine, MachineConfig};

/// Builds `find_lightest(head) -> min weight` over a list of `(weight, next)`
/// node pairs stored in the `nodes` global.
fn build_program(capacity: i64) -> (Program, FuncId, i64) {
    let mut program = Program::new();
    let nodes = program.add_global("nodes", capacity * 2);
    let mut b = FunctionBuilder::new("find_lightest");
    let head = b.param();
    let pre = b.new_block();
    let header = b.new_block();
    let body = b.new_block();
    let exit = b.new_block();
    let c = b.copy(head);
    let wm = b.copy(i64::MAX);
    b.br(pre);
    b.switch_to(pre);
    b.br(header);
    b.switch_to(header);
    let done = b.binop(BinOp::Eq, c, 0i64);
    b.cond_br(done, exit, body);
    b.switch_to(body);
    let w = b.load(c, 0);
    let better = b.binop(BinOp::Lt, w, wm);
    let new_wm = b.select(better, w, wm);
    b.copy_into(wm, new_wm);
    let next = b.load(c, 1);
    b.copy_into(c, next);
    b.br(header);
    b.switch_to(exit);
    b.ret(Some(Operand::Reg(wm)));
    let func = program.add_func(b.finish());
    (program, func, nodes)
}

fn write_list(machine: &mut Machine, base: i64, weights: &[i64]) -> i64 {
    for (i, w) in weights.iter().enumerate() {
        let addr = base + 2 * i as i64;
        let next = if i + 1 < weights.len() { addr + 2 } else { 0 };
        machine.mem_mut().write(addr, *w).unwrap();
        machine.mem_mut().write(addr + 1, next).unwrap();
    }
    base
}

fn main() {
    let weights: Vec<i64> = (0..600).map(|i| ((i * 131) % 10_007) + 1).collect();
    let n = weights.len() as i64;

    // Sequential baseline.
    let (seq_program, seq_func, seq_nodes) = build_program(n + 4);
    let mut seq_machine = Machine::new(MachineConfig::itanium2_cmp().with_cores(1), seq_program);
    let head = write_list(&mut seq_machine, seq_nodes, &weights);
    let seq_cycles = seq_machine
        .run_sequential(seq_func, &[head])
        .expect("sequential run")
        .cycles;
    let seq_value = seq_machine.return_value(0);

    // Spice with two threads on the same loop.
    let (mut program, func, nodes) = build_program(n + 4);
    let analysis = derive_loop_spec(&program, func, None).expect("analyzable loop");
    println!(
        "analysis: {} speculated live-in(s), {} reduction(s), {} invariant live-in(s)",
        analysis.cursors.len(),
        analysis.reductions.len(),
        analysis.invariant.len()
    );
    let spice = SpiceTransform::new(SpiceOptions::with_threads_and_estimate(
        2,
        weights.len() as u64,
    ))
    .apply(&mut program, &analysis)
    .expect("transformation");
    let mut machine = Machine::new(MachineConfig::itanium2_cmp().with_cores(2), program);
    let head = write_list(&mut machine, nodes, &weights);
    let mut runner = SpiceRunner::new(spice);

    // Invocation 1 trains the predictor; invocation 2 runs chunked.
    let mut last = None;
    for inv in 0..3 {
        let report = runner
            .run_invocation(&mut machine, &[head])
            .expect("invocation");
        println!(
            "invocation {inv}: {} cycles, committed chunks = {}, return = {:?}",
            report.cycles, report.valid_workers, report.return_value
        );
        assert_eq!(report.return_value, seq_value);
        last = Some(report);
    }
    let best = last.expect("ran at least once");
    println!();
    println!("sequential:  {seq_cycles} cycles (min weight = {seq_value:?})");
    println!(
        "spice (2T):  {} cycles  ->  {:.2}x loop speedup",
        best.cycles,
        seq_cycles as f64 / best.cycles as f64
    );
}
