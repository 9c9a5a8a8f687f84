//! The profiler's instrumenter (paper §6.1).
//!
//! Given a program, the instrumenter finds the loops worth profiling,
//! computes their loop-carried live-ins, removes the live-ins a reduction
//! transformation would handle, and inserts a [`spice_ir::Inst::ProfileHook`]
//! at the top of every candidate loop's header so that each iteration
//! reports the current live-in tuple to the attached analyzer.

use serde::{Deserialize, Serialize};

use spice_ir::analysis::speculated_set;
use spice_ir::cfg::Cfg;
use spice_ir::dom::DomTree;
use spice_ir::liveness::Liveness;
use spice_ir::loops::LoopForest;
use spice_ir::{BlockId, FuncId, Inst, Program, Reg};

/// One instrumented loop.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProfiledLoop {
    /// Profile-hook site identifier carried by the emitted hook.
    pub site: u32,
    /// Function containing the loop.
    pub func: FuncId,
    /// Loop header block (in the *uninstrumented* numbering, which the
    /// instrumenter preserves).
    pub header: BlockId,
    /// Nesting depth of the loop (1 = outermost).
    pub depth: usize,
    /// The live-in registers recorded at each iteration (loop-carried,
    /// reductions removed) — the values whose cross-invocation
    /// predictability the analyzer measures.
    pub recorded: Vec<Reg>,
}

/// Result of instrumenting a program.
#[derive(Debug, Clone, Default)]
pub struct Instrumentation {
    /// The instrumented loops, indexed by site id.
    pub loops: Vec<ProfiledLoop>,
}

impl Instrumentation {
    /// Looks up a profiled loop by site id.
    #[must_use]
    pub fn site(&self, site: u32) -> Option<&ProfiledLoop> {
        self.loops.iter().find(|l| l.site == site)
    }
}

/// Instruments every candidate loop of every function of `program` in place
/// and returns the site table.
///
/// Candidate loops are those with at least one loop-carried live-in left
/// after reduction removal — loops without one are DOALL-able (or reducible)
/// and need no value speculation, so the paper's profiler skips them.
#[must_use]
pub fn instrument_program(program: &mut Program) -> Instrumentation {
    let mut out = Instrumentation::default();
    let mut next_site: u32 = 0;
    for fid in 0..program.funcs.len() {
        let func_id = FuncId(fid as u32);
        // Analyse on an immutable snapshot, then mutate.
        let plan: Vec<(BlockId, usize, Vec<Reg>)> = {
            let f = program.func(func_id);
            let cfg = Cfg::new(f);
            let dom = DomTree::new(&cfg);
            let forest = LoopForest::new(f, &cfg, &dom);
            let live = Liveness::new(f, &cfg);
            let mut plan = Vec::new();
            for (_, l) in forest.iter() {
                let (_, _, recorded) = speculated_set(f, &cfg, &live, l);
                if !recorded.is_empty() {
                    plan.push((l.header, l.depth, recorded));
                }
            }
            plan
        };
        for (header, depth, recorded) in plan {
            let site = next_site;
            next_site += 1;
            let f = program.func_mut(func_id);
            f.block_mut(header).insts.insert(
                0,
                Inst::ProfileHook {
                    site,
                    regs: recorded.clone(),
                },
            );
            out.loops.push(ProfiledLoop {
                site,
                func: func_id,
                header,
                depth,
                recorded,
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use spice_ir::builder::FunctionBuilder;
    use spice_ir::interp::{run_function_with, FlatMemory, LocalSys};
    use spice_ir::{BinOp, Operand};

    fn list_walk_program() -> (Program, FuncId) {
        let mut b = FunctionBuilder::new("walk");
        let head = b.param();
        let header = b.new_block();
        let body = b.new_block();
        let exit = b.new_block();
        let c = b.copy(head);
        let sum = b.copy(0i64);
        b.br(header);
        b.switch_to(header);
        let done = b.binop(BinOp::Eq, c, 0i64);
        b.cond_br(done, exit, body);
        b.switch_to(body);
        let v = b.load(c, 0);
        let s = b.binop(BinOp::Add, sum, v);
        b.copy_into(sum, s);
        let n = b.load(c, 1);
        b.copy_into(c, n);
        b.br(header);
        b.switch_to(exit);
        b.ret(Some(Operand::Reg(sum)));
        let mut p = Program::new();
        let f = p.add_func(b.finish());
        (p, f)
    }

    #[test]
    fn instrumenter_records_only_non_reduction_live_ins() {
        let (mut p, f) = list_walk_program();
        let inst = instrument_program(&mut p);
        assert_eq!(inst.loops.len(), 1);
        let site = &inst.loops[0];
        assert_eq!(site.func, f);
        // Only the pointer is recorded; `sum` is a reduction.
        assert_eq!(site.recorded.len(), 1);
        assert!(inst.site(0).is_some());
        assert!(inst.site(9).is_none());
        // The hook landed at the top of the header block.
        let hdr = p.func(f).block(site.header);
        assert!(matches!(hdr.insts[0], Inst::ProfileHook { .. }));
    }

    #[test]
    fn instrumented_program_reports_one_tuple_per_iteration() {
        let (mut p, f) = list_walk_program();
        let _inst = instrument_program(&mut p);
        let mut mem = FlatMemory::new(8 * 1024);
        // Three-node list at 2000.
        for (i, v) in [5i64, 6, 7].iter().enumerate() {
            let a = 2000 + 2 * i as i64;
            mem.write(a, *v).unwrap();
            mem.write(a + 1, if i < 2 { a + 2 } else { 0 }).unwrap();
        }
        let mut sys = LocalSys::new();
        run_function_with(&p, f, &[2000], &mut mem, &mut sys, 100_000, |_, _, _| {}).unwrap();
        // The hook fires once per header entry: 3 iterations + the final
        // (exiting) header visit.
        let events = sys.profile_events();
        assert_eq!(events.len(), 4);
        assert_eq!(events[0].1, [2000]);
        assert_eq!(events[1].1, [2002]);
        assert_eq!(events[3].1, [0]);
    }

    #[test]
    fn loop_free_function_gets_no_sites() {
        let mut b = FunctionBuilder::new("straight");
        let x = b.param();
        let y = b.binop(BinOp::Add, x, 1i64);
        b.ret(Some(Operand::Reg(y)));
        let mut p = Program::new();
        p.add_func(b.finish());
        assert!(instrument_program(&mut p).loops.is_empty());
    }
}
