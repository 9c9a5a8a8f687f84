//! The `ks` workload: the inner loop of Kernighan–Lin graph partitioning
//! (`FindMaxGpAndSwap`), the paper's best-performing benchmark (98% hotness,
//! 157% speedup at 4 threads).
//!
//! The kernel scans the linked list of not-yet-swapped modules of one
//! partition and finds the module with the maximum swap gain with respect to
//! a fixed candidate module `a`: `gain = Da + Db − 2·cost(a, b)`. The gain
//! tracking is a MAX reduction with the module pointer as payload; the list
//! pointer is the one loop-carried live-in Spice must speculate.
//!
//! The driver mimics one Kernighan–Lin pass: after every invocation the
//! selected module is removed from the candidate list (it has been swapped)
//! and a few `D` values are updated; when the list runs low the pass ends
//! and the list is rebuilt to full size.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use spice_ir::builder::FunctionBuilder;
use spice_ir::interp::FlatMemory;
use spice_ir::{BinOp, Operand, Program};

use crate::arena::{ListMirror, RecordArena};
use crate::{BuiltKernel, SpiceWorkload};

const DVAL: i64 = 0;
const COST_TO_A: i64 = 1;
const NEXT: i64 = 2;
const RECORD_WORDS: i64 = 3;

/// Configuration of the ks workload.
#[derive(Debug, Clone)]
pub struct KsConfig {
    /// Modules per partition at the start of a pass.
    pub modules: usize,
    /// Number of kernel invocations to drive.
    pub invocations: usize,
    /// How many `D` values are refreshed between invocations.
    pub d_updates_per_invocation: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for KsConfig {
    fn default() -> Self {
        KsConfig {
            modules: 500,
            invocations: 40,
            d_updates_per_invocation: 4,
            seed: 0x6b73,
        }
    }
}

/// The Kernighan–Lin `FindMaxGpAndSwap` inner-loop workload.
#[derive(Debug, Clone)]
pub struct KsWorkload {
    config: KsConfig,
    arena: Option<RecordArena>,
    list: ListMirror,
    out_addr: i64,
    d_a: i64,
    rng: StdRng,
}

impl KsWorkload {
    /// Creates the workload with the given configuration.
    #[must_use]
    pub fn new(config: KsConfig) -> Self {
        let rng = StdRng::seed_from_u64(config.seed);
        KsWorkload {
            config,
            arena: None,
            list: ListMirror::new(NEXT),
            out_addr: 0,
            d_a: 0,
            rng,
        }
    }

    fn capacity(&self) -> usize {
        self.config.modules + 4
    }

    fn arena(&self) -> &RecordArena {
        self.arena.as_ref().expect("build() must be called first")
    }

    fn args(&self) -> Vec<i64> {
        vec![self.list.head_addr(self.arena()), self.d_a, self.out_addr]
    }

    fn fill_list(&mut self, mem: &mut FlatMemory) {
        let n = self.config.modules;
        let mut specs = Vec::with_capacity(n);
        for _ in 0..n {
            specs.push((self.rng.gen_range(-500..=500), self.rng.gen_range(0..=64)));
        }
        let arena = self.arena.as_mut().expect("built");
        for (d, cost) in specs {
            let slot = arena.alloc().expect("capacity");
            arena.write(mem, slot, DVAL, d).expect("in bounds");
            arena.write(mem, slot, COST_TO_A, cost).expect("in bounds");
            self.list.insert_at(usize::MAX, slot);
        }
        self.list.relink(self.arena(), mem).expect("in bounds");
    }

    /// The maximum gain currently available on the list.
    #[must_use]
    pub fn reference_max_gain(&self, mem: &FlatMemory) -> i64 {
        let arena = self.arena();
        self.list
            .order
            .iter()
            .map(|&s| {
                let d = arena.read(mem, s, DVAL).expect("in bounds");
                let c = arena.read(mem, s, COST_TO_A).expect("in bounds");
                self.d_a + d - 2 * c
            })
            .max()
            .unwrap_or(i64::MIN)
    }
}

impl SpiceWorkload for KsWorkload {
    fn name(&self) -> &'static str {
        "ks"
    }

    fn description(&self) -> &'static str {
        "Kernighan-Lin graph partitioning"
    }

    fn loop_name(&self) -> &'static str {
        "FindMaxGpAndSwap (inner loop)"
    }

    fn paper_hotness(&self) -> f64 {
        0.98
    }

    fn conflict_policy(&self) -> spice_ir::exec::ConflictPolicy {
        // The gain scan is read-only inside the loop (its store sits in the
        // exit block, executed by the main thread after the merge), so
        // chunks carry no cross-chunk memory flow by construction.
        spice_ir::exec::ConflictPolicy::AssumeIndependent
    }

    fn build(&mut self) -> BuiltKernel {
        let mut program = Program::new();
        let arena_base = program.add_global(
            "ks.modules",
            RecordArena::words_needed(RECORD_WORDS, self.capacity()),
        );
        self.out_addr = program.add_global("ks.best_out", 1);
        let mut arena = RecordArena::new(arena_base, RECORD_WORDS, self.capacity());
        // Module records are heap-allocated during graph construction; their
        // list order does not match their allocation order.
        arena.scatter(self.config.seed);
        self.arena = Some(arena);

        // find_max_gp(head, d_a, out) -> max gain; *out = argmax module.
        let mut b = FunctionBuilder::new("find_max_gp_and_swap");
        let head = b.param();
        let d_a = b.param();
        let out = b.param();
        let pre = b.new_labeled_block("preheader");
        let header = b.new_labeled_block("header");
        let body = b.new_labeled_block("body");
        let exit = b.new_labeled_block("exit");
        let c = b.copy(head);
        let best = b.copy(i64::MIN);
        let best_mod = b.copy(0i64);
        b.br(pre);
        b.switch_to(pre);
        b.br(header);
        b.switch_to(header);
        let done = b.binop(BinOp::Eq, c, 0i64);
        b.cond_br(done, exit, body);
        b.switch_to(body);
        let d_b = b.load(c, DVAL);
        let cost = b.load(c, COST_TO_A);
        let partial = b.binop(BinOp::Add, d_a, d_b);
        let twice = b.binop(BinOp::Mul, cost, 2i64);
        let gain = b.binop(BinOp::Sub, partial, twice);
        let better = b.binop(BinOp::Gt, gain, best);
        let new_best = b.select(better, gain, best);
        b.copy_into(best, new_best);
        let new_mod = b.select(better, c, best_mod);
        b.copy_into(best_mod, new_mod);
        let next = b.load(c, NEXT);
        b.copy_into(c, next);
        b.br(header);
        b.switch_to(exit);
        b.store(best_mod, out, 0);
        b.ret(Some(Operand::Reg(best)));
        let kernel = program.add_func(b.finish());

        BuiltKernel {
            program,
            kernel,
            loop_header_hint: None,
        }
    }

    fn init(&mut self, mem: &mut FlatMemory) -> Vec<i64> {
        self.d_a = self.rng.gen_range(-200..=200);
        self.fill_list(mem);
        self.args()
    }

    fn next_invocation(&mut self, mem: &mut FlatMemory, invocation: usize) -> Option<Vec<i64>> {
        if invocation + 1 >= self.config.invocations {
            return None;
        }
        // The previous invocation's winner is swapped out of this partition.
        let chosen = mem.read(self.out_addr).expect("out cell in bounds");
        if let Some(slot) = self.arena().slot_of(chosen) {
            if let Some(pos) = self.list.position_of(slot) {
                let removed = self.list.remove_at(pos);
                self.arena.as_mut().expect("built").release(removed);
            }
        }
        // Swapping changes some D values of the remaining modules.
        for _ in 0..self.config.d_updates_per_invocation {
            if self.list.is_empty() {
                break;
            }
            let idx = self.rng.gen_range(0..self.list.len());
            let slot = self.list.order[idx];
            let delta: i64 = self.rng.gen_range(-40..=40);
            let old = self.arena().read(mem, slot, DVAL).expect("in bounds");
            self.arena()
                .write(mem, slot, DVAL, old + delta)
                .expect("in bounds");
        }
        // A new candidate module `a` is considered each step.
        self.d_a = self.rng.gen_range(-200..=200);
        // End of pass: rebuild the partition list.
        if self.list.len() < self.config.modules / 2 {
            let slots: Vec<usize> = self.list.order.clone();
            let arena = self.arena.as_mut().expect("built");
            for s in slots {
                arena.release(s);
            }
            self.list = ListMirror::new(NEXT);
            self.fill_list(mem);
        } else {
            self.list.relink(self.arena(), mem).expect("in bounds");
        }
        Some(self.args())
    }

    fn expected_result(&self, mem: &FlatMemory) -> Option<i64> {
        Some(self.reference_max_gain(mem))
    }

    fn expected_iterations(&self) -> u64 {
        self.list.len().max(1) as u64
    }

    fn invocations(&self) -> usize {
        self.config.invocations
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spice_ir::interp::run_function;

    #[test]
    fn sequential_kernel_matches_reference_across_invocations() {
        let mut wl = KsWorkload::new(KsConfig {
            modules: 60,
            invocations: 10,
            d_updates_per_invocation: 3,
            seed: 11,
        });
        assert_eq!(crate::run_on_interpreter(&mut wl).invocations, 10);
    }

    #[test]
    fn pass_rebuilds_list_when_it_runs_low() {
        let mut wl = KsWorkload::new(KsConfig {
            modules: 8,
            invocations: 30,
            d_updates_per_invocation: 1,
            seed: 3,
        });
        let built = wl.build();
        let mut mem = FlatMemory::for_program(&built.program, 16 * 1024);
        let mut args = wl.init(&mut mem);
        let mut min_len = usize::MAX;
        let mut rebuilt = false;
        for inv in 0..20 {
            run_function(&built.program, built.kernel, &args, &mut mem).unwrap();
            match wl.next_invocation(&mut mem, inv) {
                Some(a) => args = a,
                None => break,
            }
            min_len = min_len.min(wl.list.len());
            if wl.list.len() == 8 && inv > 0 {
                rebuilt = true;
            }
        }
        assert!(min_len >= 4, "list never drops below half");
        assert!(rebuilt, "pass never rebuilt the list");
        assert_eq!(wl.paper_hotness(), 0.98);
    }
}
