//! The `otter` workload: the paper's running example (Figure 1).
//!
//! `otter` is a first-order theorem prover; its `find_lightest_cl` loop walks
//! the linked list of usable clauses and returns the one with the smallest
//! `pick_weight`. Between invocations the prover removes the chosen clause
//! and inserts newly generated clauses, so the list mutates a little while
//! most nodes survive — exactly the behaviour Spice's memoizing predictor
//! exploits.
//!
//! The kernel here is the loop of paper Figure 1(a), lowered to `spice-ir`;
//! the driver reproduces the inter-invocation mutation (remove the minimum,
//! insert a few random clauses).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use spice_ir::builder::FunctionBuilder;
use spice_ir::interp::FlatMemory;
use spice_ir::{BinOp, FuncId, Operand, Program};

use crate::arena::{ListMirror, RecordArena};
use crate::{BuiltKernel, SpiceWorkload};

const WEIGHT: i64 = 0;
const NEXT: i64 = 1;
const RECORD_WORDS: i64 = 2;

/// Configuration of the otter workload.
#[derive(Debug, Clone)]
pub struct OtterConfig {
    /// Initial number of clauses on the list.
    pub initial_len: usize,
    /// Clauses inserted after each invocation.
    pub inserts_per_invocation: usize,
    /// Number of loop invocations to drive.
    pub invocations: usize,
    /// RNG seed (weights and insertion positions).
    pub seed: u64,
}

impl Default for OtterConfig {
    fn default() -> Self {
        OtterConfig {
            initial_len: 400,
            inserts_per_invocation: 3,
            invocations: 40,
            seed: 0x07734,
        }
    }
}

/// The otter `find_lightest_cl` workload.
#[derive(Debug, Clone)]
pub struct OtterWorkload {
    config: OtterConfig,
    arena: Option<RecordArena>,
    list: ListMirror,
    out_addr: i64,
    rng: StdRng,
}

impl OtterWorkload {
    /// Creates the workload with the given configuration.
    #[must_use]
    pub fn new(config: OtterConfig) -> Self {
        let rng = StdRng::seed_from_u64(config.seed);
        OtterWorkload {
            config,
            arena: None,
            list: ListMirror::new(NEXT),
            out_addr: 0,
            rng,
        }
    }

    fn capacity(&self) -> usize {
        self.config.initial_len + self.config.inserts_per_invocation * self.config.invocations + 8
    }

    fn arena(&self) -> &RecordArena {
        self.arena.as_ref().expect("build() must be called first")
    }

    fn random_weight(&mut self) -> i64 {
        self.rng.gen_range(1..=1_000_000)
    }

    fn args(&self) -> Vec<i64> {
        vec![self.list.head_addr(self.arena()), self.out_addr]
    }

    /// The minimum clause weight currently on the list (what the kernel must
    /// return).
    #[must_use]
    pub fn reference_min(&self, mem: &FlatMemory) -> i64 {
        let arena = self.arena();
        self.list
            .order
            .iter()
            .map(|&s| arena.read(mem, s, WEIGHT).expect("node in bounds"))
            .min()
            .unwrap_or(i64::MAX)
    }
}

impl SpiceWorkload for OtterWorkload {
    fn name(&self) -> &'static str {
        "otter"
    }

    fn description(&self) -> &'static str {
        "theorem prover for first-order logic"
    }

    fn loop_name(&self) -> &'static str {
        "find_lightest_cl"
    }

    fn paper_hotness(&self) -> f64 {
        0.20
    }

    fn conflict_policy(&self) -> spice_ir::exec::ConflictPolicy {
        // `find_lightest_cl` only reads inside the loop (the argmin store is
        // in the exit block); chunks are independent by construction.
        spice_ir::exec::ConflictPolicy::AssumeIndependent
    }

    fn build(&mut self) -> BuiltKernel {
        let mut program = Program::new();
        let arena_base = program.add_global(
            "otter.clauses",
            RecordArena::words_needed(RECORD_WORDS, self.capacity()),
        );
        self.out_addr = program.add_global("otter.lightest_out", 1);
        let mut arena = RecordArena::new(arena_base, RECORD_WORDS, self.capacity());
        // otter's clause nodes come from a long-lived heap: adjacent list
        // positions have no spatial locality.
        arena.scatter(self.config.seed);
        self.arena = Some(arena);

        // find_lightest(head, out) — paper Figure 1(a).
        let mut b = FunctionBuilder::new("find_lightest_cl");
        let head = b.param();
        let out = b.param();
        let pre = b.new_labeled_block("preheader");
        let header = b.new_labeled_block("header");
        let body = b.new_labeled_block("body");
        let exit = b.new_labeled_block("exit");
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
        let w = b.load(c, WEIGHT);
        let better = b.binop(BinOp::Lt, w, wm);
        let new_wm = b.select(better, w, wm);
        b.copy_into(wm, new_wm);
        let new_cm = b.select(better, c, cm);
        b.copy_into(cm, new_cm);
        let next = b.load(c, NEXT);
        b.copy_into(c, next);
        b.br(header);
        b.switch_to(exit);
        b.store(cm, out, 0);
        b.ret(Some(Operand::Reg(wm)));
        let kernel: FuncId = program.add_func(b.finish());

        BuiltKernel {
            program,
            kernel,
            loop_header_hint: None,
        }
    }

    fn init(&mut self, mem: &mut FlatMemory) -> Vec<i64> {
        let n = self.config.initial_len;
        let mut weights = Vec::with_capacity(n);
        for _ in 0..n {
            weights.push(self.random_weight());
        }
        let arena = self.arena.as_mut().expect("build() must be called first");
        for w in weights {
            let slot = arena.alloc().expect("arena capacity");
            arena.write(mem, slot, WEIGHT, w).expect("in bounds");
            self.list.insert_at(usize::MAX, slot);
        }
        self.list.relink(self.arena(), mem).expect("in bounds");
        self.args()
    }

    fn next_invocation(&mut self, mem: &mut FlatMemory, invocation: usize) -> Option<Vec<i64>> {
        if invocation + 1 >= self.config.invocations || self.list.len() <= 2 {
            return None;
        }
        // Remove the clause the previous invocation selected (read back from
        // the kernel's output cell), mirroring otter's use of the lightest
        // clause.
        let chosen_addr = mem.read(self.out_addr).expect("out cell in bounds");
        if let Some(slot) = self.arena().slot_of(chosen_addr) {
            if let Some(pos) = self.list.position_of(slot) {
                let removed = self.list.remove_at(pos);
                self.arena.as_mut().expect("built").release(removed);
            }
        }
        // Insert freshly generated clauses at random positions.
        for _ in 0..self.config.inserts_per_invocation {
            let w = self.random_weight();
            let pos = self.rng.gen_range(0..=self.list.len());
            let arena = self.arena.as_mut().expect("built");
            if let Some(slot) = arena.alloc() {
                arena.write(mem, slot, WEIGHT, w).expect("in bounds");
                self.list.insert_at(pos, slot);
            }
        }
        self.list.relink(self.arena(), mem).expect("in bounds");
        Some(self.args())
    }

    fn expected_result(&self, mem: &FlatMemory) -> Option<i64> {
        Some(self.reference_min(mem))
    }

    fn expected_iterations(&self) -> u64 {
        self.list.len().max(self.config.initial_len) as u64
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
    fn sequential_kernel_finds_minimum_every_invocation() {
        let mut wl = OtterWorkload::new(OtterConfig {
            initial_len: 50,
            inserts_per_invocation: 2,
            invocations: 8,
            seed: 7,
        });
        assert_eq!(crate::run_on_interpreter(&mut wl).invocations, 8);
    }

    #[test]
    fn list_shrinks_and_grows_as_configured() {
        let mut wl = OtterWorkload::new(OtterConfig {
            initial_len: 10,
            inserts_per_invocation: 3,
            invocations: 5,
            seed: 1,
        });
        let built = wl.build();
        let mut mem = FlatMemory::for_program(&built.program, 16 * 1024);
        let args = wl.init(&mut mem);
        assert_eq!(wl.list.len(), 10);
        // Run once so the output cell holds the lightest clause.
        run_function(&built.program, built.kernel, &args, &mut mem).unwrap();
        let next = wl.next_invocation(&mut mem, 0).unwrap();
        // One removed, three inserted.
        assert_eq!(wl.list.len(), 12);
        assert_eq!(next.len(), 2);
        assert_eq!(wl.name(), "otter");
        assert!(wl.expected_iterations() >= 10);
    }

    #[test]
    fn driver_terminates_after_configured_invocations() {
        let mut wl = OtterWorkload::new(OtterConfig {
            initial_len: 8,
            inserts_per_invocation: 1,
            invocations: 3,
            seed: 2,
        });
        let built = wl.build();
        let mut mem = FlatMemory::for_program(&built.program, 16 * 1024);
        let args = wl.init(&mut mem);
        run_function(&built.program, built.kernel, &args, &mut mem).unwrap();
        assert!(wl.next_invocation(&mut mem, 0).is_some());
        run_function(&built.program, built.kernel, &args, &mut mem).unwrap();
        assert!(wl.next_invocation(&mut mem, 1).is_some());
        assert!(wl.next_invocation(&mut mem, 2).is_none());
    }
}
