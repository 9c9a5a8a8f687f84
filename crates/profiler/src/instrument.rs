//! The profiler's instrumenter (paper §6.1).
//!
//! Given a program, the instrumenter finds the loops worth profiling,
//! computes their loop-carried live-ins and removes the live-ins a reduction
//! transformation would handle. It leaves the program as it is: its site
//! table is the watch list of the recording run
//! ([`spice_ir::exec::InterpBackend::watching`]), which reads each
//! candidate's live-in tuple every time the thread arrives at its header.

use serde::{Deserialize, Serialize};

use spice_ir::analysis::speculated_set;
use spice_ir::cfg::Cfg;
use spice_ir::dom::DomTree;
use spice_ir::liveness::Liveness;
use spice_ir::loops::LoopForest;
use spice_ir::{BlockId, FuncId, Program, Reg};

/// One profiled loop.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProfiledLoop {
    /// Site identifier its recorded events carry.
    pub site: u32,
    /// Function containing the loop.
    pub func: FuncId,
    /// Loop header block.
    pub header: BlockId,
    /// The live-in registers recorded at each iteration (loop-carried,
    /// reductions removed) — the values whose cross-invocation
    /// predictability the analyzer measures.
    pub recorded: Vec<Reg>,
}

/// Result of instrumenting a program.
#[derive(Debug, Clone, Default)]
pub struct Instrumentation {
    /// The profiled loops, indexed by site id.
    pub loops: Vec<ProfiledLoop>,
}

impl Instrumentation {
    /// The recording run's watch list: each site's `(function, header,
    /// recorded registers)`, in site order.
    #[must_use]
    pub fn watch_list(&self) -> Vec<(FuncId, BlockId, Vec<Reg>)> {
        self.loops
            .iter()
            .map(|l| (l.func, l.header, l.recorded.clone()))
            .collect()
    }
}

/// Finds every candidate loop of every function of `program` and returns
/// the site table, sites numbered in function order, then loop order.
///
/// Candidate loops are those with at least one loop-carried live-in left
/// after reduction removal — loops without one are DOALL-able (or reducible)
/// and need no value speculation, so the paper's profiler skips them.
#[must_use]
pub fn instrument_program(program: &Program) -> Instrumentation {
    let mut out = Instrumentation::default();
    for (fid, f) in program.funcs.iter().enumerate() {
        let cfg = Cfg::new(f);
        let dom = DomTree::new(&cfg);
        let forest = LoopForest::new(f, &cfg, &dom);
        let live = Liveness::new(f, &cfg);
        for (_, l) in forest.iter() {
            let (_, _, recorded) = speculated_set(f, &cfg, &live, l);
            if !recorded.is_empty() {
                out.loops.push(ProfiledLoop {
                    site: out.loops.len() as u32,
                    func: FuncId(fid as u32),
                    header: l.header,
                    recorded,
                });
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use spice_ir::builder::FunctionBuilder;
    use spice_ir::exec::{ExecutionBackend, InterpBackend, LoadOptions};
    use spice_ir::{BinOp, Operand, GLOBAL_BASE};

    /// Runs `f(args)` once on an interpreter backend watching every site of
    /// `p`, and returns the invocation's `(site, values)` events.
    fn record(p: Program, f: FuncId, args: &[i64]) -> Vec<(u32, Vec<i64>)> {
        let mut backend = InterpBackend::watching(instrument_program(&p).watch_list());
        backend.load(p, f, LoadOptions::new(None)).unwrap();
        backend.run_invocation(args).unwrap();
        let events = backend.profile_events().next().unwrap();
        events.into_iter().map(|(s, v)| (s, v.to_vec())).collect()
    }

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

    /// `count(i)`: a loop counting `i` down to 0. `header` gets the builder
    /// in the entry block and the counter; it returns the loop header and
    /// leaves the builder in it, before the header's closing `cond_br`.
    fn counting_program(
        header: impl FnOnce(&mut FunctionBuilder, Reg) -> BlockId,
    ) -> (Program, FuncId) {
        let mut b = FunctionBuilder::new("count");
        let i = b.param();
        let header = header(&mut b, i);
        let body = b.new_block();
        let exit = b.new_block();
        b.cond_br(i, body, exit);
        b.switch_to(body);
        let next = b.binop(BinOp::Sub, i, 1i64);
        b.copy_into(i, next);
        b.br(header);
        b.switch_to(exit);
        b.ret(Some(Operand::Reg(i)));
        let mut p = Program::new();
        let f = p.add_func(b.finish());
        (p, f)
    }

    /// Branches from the entry block to a new header and moves there.
    fn new_header(b: &mut FunctionBuilder) -> BlockId {
        let header = b.new_block();
        b.br(header);
        b.switch_to(header);
        header
    }

    #[test]
    fn instrumenter_records_only_non_reduction_live_ins() {
        let (p, f) = list_walk_program();
        let before = format!("{p}");
        let inst = instrument_program(&p);
        assert_eq!(inst.loops.len(), 1);
        let site = &inst.loops[0];
        assert_eq!(site.func, f);
        // Only the pointer is recorded; `sum` is a reduction.
        assert_eq!(site.recorded.len(), 1);
        assert_eq!(format!("{p}"), before, "the program is left as it is");
    }

    #[test]
    fn instrumented_program_reports_one_tuple_per_iteration() {
        let (mut p, f) = list_walk_program();
        // Three-node list at 2000.
        p.add_global("below", 2000 - GLOBAL_BASE);
        let list = p.add_global_init("list", 6, vec![5, 2002, 6, 2004, 7, 0]);
        assert_eq!(list, 2000);
        // One event per header arrival: 3 iterations + the final (exiting)
        // header visit.
        let events = record(p, f, &[2000]);
        let values: Vec<_> = events.iter().map(|(_, v)| v.clone()).collect();
        assert_eq!(values, [[2000], [2002], [2004], [0]]);
    }

    /// A header holding only its terminator: the arrival is at the branch.
    #[test]
    fn a_header_without_instructions_is_watched_at_its_terminator() {
        let (p, f) = counting_program(|b, _| new_header(b));
        assert_eq!(
            record(p, f, &[3]),
            [(0, vec![3]), (0, vec![2]), (0, vec![1]), (0, vec![0])]
        );
    }

    /// A `call` in the header: its return lands inside the header, which is
    /// not an arrival.
    #[test]
    fn a_return_into_the_header_is_not_an_arrival() {
        let (mut p, f) = counting_program(|b, i| {
            let header = new_header(b);
            b.call_void(FuncId(1), vec![Operand::Reg(i)]);
            header
        });
        let mut callee = FunctionBuilder::new("twice");
        let x = callee.param();
        let y = callee.binop(BinOp::Add, x, x);
        callee.ret(Some(Operand::Reg(y)));
        assert_eq!(p.add_func(callee.finish()), FuncId(1));
        assert_eq!(
            record(p, f, &[2]),
            [(0, vec![2]), (0, vec![1]), (0, vec![0])]
        );
    }

    /// A loop headed by the entry block: the thread starts there, and that
    /// start is the first arrival.
    #[test]
    fn an_entry_block_header_is_arrived_at_when_the_run_starts() {
        let (p, f) = counting_program(|b, _| b.entry());
        assert_eq!(instrument_program(&p).loops[0].header, p.func(f).entry);
        assert_eq!(
            record(p, f, &[2]),
            [(0, vec![2]), (0, vec![1]), (0, vec![0])]
        );
    }

    #[test]
    fn loop_free_function_gets_no_sites() {
        let mut b = FunctionBuilder::new("straight");
        let x = b.param();
        let y = b.binop(BinOp::Add, x, 1i64);
        b.ret(Some(Operand::Reg(y)));
        let mut p = Program::new();
        p.add_func(b.finish());
        assert!(instrument_program(&p).loops.is_empty());
    }
}
