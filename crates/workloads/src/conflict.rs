//! The adversarial conflict workload: a list walk whose writers hit their
//! successors' read regions at a controlled rate.
//!
//! Every node of a singly linked list carries `(value, next, target)`. The
//! kernel walks the list accumulating `sum += value`; when a node's `target`
//! is non-null it *stores the node's value through it* — and the driver aims
//! every target at the `value` word of a node **later in the walk**. Each
//! such store is a genuine cross-chunk RAW dependence whenever the writer
//! and the written-to node land in different Spice chunks: the later chunk
//! reads the value word speculatively before the earlier chunk's buffered
//! store commits. The `conflict_rate` knob sets the per-node probability of
//! carrying a target, so the workload sweeps continuously from the paper's
//! dependence-free regime (rate 0, full chunk parallelism) to a worst case
//! where nearly every chunk boundary is violated (rate 1).
//!
//! Without conflict detection the speculative sum is simply *wrong* at any
//! nonzero rate — the stale read changes the reduction, not just timing —
//! which makes this loop the acceptance probe for the memory-dependence
//! speculation subsystem: results must stay bit-identical to sequential
//! execution on every backend while `ExecutionReport` shows
//! `DependenceViolation` squashes being taken and recovered.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use spice_ir::builder::FunctionBuilder;
use spice_ir::interp::FlatMemory;
use spice_ir::{BinOp, Operand, Program};

use crate::arena::RecordArena;
use crate::{BuiltKernel, SpiceWorkload};

const VALUE: i64 = 0;
const NEXT: i64 = 1;
const TARGET: i64 = 2;
const RECORD_WORDS: i64 = 3;

/// Configuration of the splice workload.
#[derive(Debug, Clone)]
pub struct ConflictConfig {
    /// List length (one kernel iteration per node).
    pub len: usize,
    /// Kernel invocations to drive.
    pub invocations: usize,
    /// Per-node probability of writing into a later node's value word.
    pub conflict_rate: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for ConflictConfig {
    fn default() -> Self {
        ConflictConfig {
            len: 400,
            invocations: 12,
            conflict_rate: 0.1,
            seed: 0x59_11CE,
        }
    }
}

/// The list-splice conflict workload.
#[derive(Debug, Clone)]
pub struct ConflictListWorkload {
    config: ConflictConfig,
    arena: Option<RecordArena>,
    /// Host mirror of each node's target slot (`None` = null target).
    targets: Vec<Option<usize>>,
    rng: StdRng,
}

impl ConflictListWorkload {
    /// Creates the workload with the given configuration.
    #[must_use]
    pub fn new(config: ConflictConfig) -> Self {
        let rng = StdRng::seed_from_u64(config.seed);
        ConflictListWorkload {
            config,
            arena: None,
            targets: Vec::new(),
            rng,
        }
    }

    fn arena(&self) -> &RecordArena {
        self.arena.as_ref().expect("build() must be called first")
    }

    /// Re-randomizes values and targets for the upcoming invocation. Targets
    /// always point *forward* in the walk so the dependence is a RAW across
    /// the iteration space, never a cycle.
    fn reseed(&mut self, mem: &mut FlatMemory) {
        let n = self.config.len;
        let values: Vec<i64> = (0..n).map(|_| self.rng.gen_range(1..100_000)).collect();
        let targets: Vec<Option<usize>> = (0..n)
            .map(|i| {
                if i + 1 < n && self.rng.gen_bool(self.config.conflict_rate) {
                    Some(self.rng.gen_range(i + 1..n))
                } else {
                    None
                }
            })
            .collect();
        let arena = self.arena();
        for (i, v) in values.iter().enumerate() {
            arena.write(mem, i, VALUE, *v).expect("in bounds");
        }
        for (i, t) in targets.iter().enumerate() {
            let addr = t.map_or(0, |j| arena.addr(j) + VALUE);
            arena.write(mem, i, TARGET, addr).expect("in bounds");
        }
        self.targets = targets;
    }

    fn args(&self) -> Vec<i64> {
        vec![self.arena().addr(0)]
    }
}

impl SpiceWorkload for ConflictListWorkload {
    fn name(&self) -> &'static str {
        "list_splice"
    }

    fn description(&self) -> &'static str {
        "adversarial list walk; writers hit successors' reads at a set rate"
    }

    fn loop_name(&self) -> &'static str {
        "splice_walk"
    }

    fn paper_hotness(&self) -> f64 {
        0.0
    }

    fn conflict_policy(&self) -> spice_ir::exec::ConflictPolicy {
        // Its writers hit successor chunks' reads by design — the workload
        // exists to exercise the detector.
        spice_ir::exec::ConflictPolicy::Detect
    }

    fn build(&mut self) -> BuiltKernel {
        let mut program = Program::new();
        let base = program.add_global(
            "splice.nodes",
            RecordArena::words_needed(RECORD_WORDS, self.config.len),
        );
        self.arena = Some(RecordArena::new(base, RECORD_WORDS, self.config.len));

        // splice_walk(head) -> sum of values as visited.
        let mut b = FunctionBuilder::new("splice_walk");
        let head = b.param();
        let pre = b.new_labeled_block("preheader");
        let header = b.new_labeled_block("header");
        let body = b.new_labeled_block("body");
        let poke = b.new_labeled_block("poke");
        let advance = b.new_labeled_block("advance");
        let exit = b.new_labeled_block("exit");
        let c = b.copy(head);
        let sum = b.copy(0i64);
        b.br(pre);
        b.switch_to(pre);
        b.br(header);
        b.switch_to(header);
        let done = b.binop(BinOp::Eq, c, 0i64);
        b.cond_br(done, exit, body);
        b.switch_to(body);
        let v = b.load(c, VALUE);
        let s = b.binop(BinOp::Add, sum, v);
        b.copy_into(sum, s);
        let t = b.load(c, TARGET);
        let has_target = b.binop(BinOp::Ne, t, 0i64);
        b.cond_br(has_target, poke, advance);
        b.switch_to(poke);
        // The splice: overwrite a later node's value with this one's.
        b.store(v, t, 0);
        b.br(advance);
        b.switch_to(advance);
        let nx = b.load(c, NEXT);
        b.copy_into(c, nx);
        b.br(header);
        b.switch_to(exit);
        b.ret(Some(Operand::Reg(sum)));
        let kernel = program.add_func(b.finish());
        BuiltKernel {
            program,
            kernel,
            loop_header_hint: None,
        }
    }

    fn init(&mut self, mem: &mut FlatMemory) -> Vec<i64> {
        let n = self.config.len;
        {
            let arena = self.arena.as_mut().expect("built");
            for _ in 0..n {
                let _ = arena.alloc();
            }
        }
        let arena = self.arena();
        for i in 0..n {
            let next = if i + 1 < n { arena.addr(i + 1) } else { 0 };
            arena.write(mem, i, NEXT, next).expect("in bounds");
        }
        self.reseed(mem);
        self.args()
    }

    fn next_invocation(&mut self, mem: &mut FlatMemory, invocation: usize) -> Option<Vec<i64>> {
        if invocation + 1 >= self.config.invocations {
            return None;
        }
        self.reseed(mem);
        Some(self.args())
    }

    /// Host mirror of the walk, including the forward stores: the value a
    /// node contributes is whatever the *latest earlier splice* left there.
    fn expected_result(&self, mem: &FlatMemory) -> Option<i64> {
        let arena = self.arena();
        let mut values: Vec<i64> = (0..self.config.len)
            .map(|i| arena.read(mem, i, VALUE).expect("in bounds"))
            .collect();
        let mut sum = 0i64;
        for i in 0..self.config.len {
            let v = values[i];
            sum += v;
            if let Some(j) = self.targets[i] {
                values[j] = v;
            }
        }
        Some(sum)
    }

    fn expected_iterations(&self) -> u64 {
        self.config.len as u64
    }

    fn invocations(&self) -> usize {
        self.config.invocations
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drive_sequentially(rate: f64) {
        let mut wl = ConflictListWorkload::new(ConflictConfig {
            len: 64,
            invocations: 6,
            conflict_rate: rate,
            seed: 0xadef,
        });
        assert_eq!(crate::run_on_interpreter(&mut wl).invocations, 6);
    }

    #[test]
    fn host_mirror_matches_interpreter_at_all_rates() {
        for rate in [0.0, 0.1, 1.0] {
            drive_sequentially(rate);
        }
    }

    #[test]
    fn nonzero_rate_really_splices_forward() {
        let mut wl = ConflictListWorkload::new(ConflictConfig {
            len: 100,
            invocations: 2,
            conflict_rate: 1.0,
            seed: 7,
        });
        let built = wl.build();
        let mut mem = FlatMemory::for_program(&built.program, 32 * 1024);
        let _ = wl.init(&mut mem);
        let spliced = wl.targets.iter().flatten().count();
        assert!(spliced >= 90, "rate 1.0 must target nearly every node");
        for (i, t) in wl.targets.iter().enumerate() {
            if let Some(j) = t {
                assert!(*j > i, "targets must point forward in the walk");
            }
        }
    }
}
