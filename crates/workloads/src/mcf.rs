//! The `181.mcf` workload: the `refresh_potential` spanning-tree walk.
//!
//! MCF's network simplex keeps a spanning tree of the flow network; after
//! each pivot, `refresh_potential` walks the whole tree (first-child /
//! next-sibling links, climbing back up through parent pointers) and
//! recomputes every node's potential. The walk is a pointer-chasing loop
//! with an inner "climb" loop of data-dependent length — the source of the
//! load imbalance the paper observes for this benchmark — and it stores to
//! every node it visits, which exercises the speculative store buffers.
//!
//! Two kernels share the traversal (see `DESIGN.md` §3.4):
//!
//! * [`McfWorkload::new`] — the **dependence-free control**: the potential is
//!   computed from the node's own fields and a per-invocation base value.
//!   Parallel chunks are independent by construction, so this variant
//!   measures the speculation machinery with no conflicts in play.
//! * [`McfWorkload::new_faithful`] — the **faithful kernel**
//!   (`mcf_refresh_potential_true`): like the real `refresh_potential`, the
//!   potential is computed from `node->pred->potential`, a cross-chunk
//!   memory flow dependence. A speculative chunk whose start node's ancestors
//!   were updated by an earlier chunk reads their *stale* potentials, so the
//!   conflict-detection subsystem (`ConflictPolicy::Detect`) must catch the
//!   RAW violation at commit and squash for results to stay bit-identical to
//!   sequential execution — exactly the hardware contract the paper assumes.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use spice_ir::builder::FunctionBuilder;
use spice_ir::interp::FlatMemory;
use spice_ir::{BinOp, BlockId, Operand, Program, Reg};

use crate::arena::RecordArena;
use crate::{BuiltKernel, SpiceWorkload};

// The tree-node record, shared with `mcf_app`.
pub(crate) const POTENTIAL: i64 = 0;
pub(crate) const COST: i64 = 1;
pub(crate) const ORIENT: i64 = 2;
pub(crate) const PRED: i64 = 3;
pub(crate) const CHILD: i64 = 4;
pub(crate) const SIBLING: i64 = 5;
pub(crate) const RECORD_WORDS: i64 = 6;

/// Emits the `refresh_potential` walk into `b` from its current block and
/// returns the loop header: ten blocks that walk the tree from `root`'s
/// first child (first child, next sibling, climbing back through `PRED`),
/// store every node's recomputed potential and return the checksum. A
/// potential offsets the node's cost from `base`, the invocation-wide value,
/// or without it from `node->pred->potential`, as the real
/// `refresh_potential` does (a cross-chunk flow dependence). The checksum
/// counts nodes, or with `sum_potentials` sums the new potentials.
pub(crate) fn emit_refresh_walk(
    b: &mut FunctionBuilder,
    root: impl Into<Operand>,
    base: Option<Reg>,
    sum_potentials: bool,
) -> BlockId {
    let pre = b.new_labeled_block("preheader");
    let header = b.new_labeled_block("header");
    let body = b.new_labeled_block("body");
    let descend = b.new_labeled_block("descend");
    let climb = b.new_labeled_block("climb");
    let climb_pred = b.new_labeled_block("climb_pred");
    let take_sibling = b.new_labeled_block("take_sibling");
    let at_root = b.new_labeled_block("at_root");
    let latch = b.new_labeled_block("latch");
    let exit = b.new_labeled_block("exit");

    let node = b.copy(0i64);
    let checksum = b.copy(0i64);
    let first = b.load(root, CHILD);
    b.copy_into(node, first);
    b.br(pre);
    b.switch_to(pre);
    b.br(header);

    b.switch_to(header);
    let done = b.binop(BinOp::Eq, node, 0i64);
    b.cond_br(done, exit, body);

    // body: recompute this node's potential and step the checksum.
    b.switch_to(body);
    let cost = b.load(node, COST);
    let orient = b.load(node, ORIENT);
    let basis = base.unwrap_or_else(|| {
        let pred_ptr = b.load(node, PRED);
        b.load(pred_ptr, POTENTIAL)
    });
    let up = b.binop(BinOp::Add, basis, cost);
    let down = b.binop(BinOp::Sub, basis, cost);
    let pot = b.select(orient, up, down);
    b.store(pot, node, POTENTIAL);
    let step = if sum_potentials {
        Operand::Reg(pot)
    } else {
        Operand::Imm(1)
    };
    let ck = b.binop(BinOp::Add, checksum, step);
    b.copy_into(checksum, ck);
    let child = b.load(node, CHILD);
    let has_child = b.binop(BinOp::Ne, child, 0i64);
    b.cond_br(has_child, descend, climb);

    b.switch_to(descend);
    b.copy_into(node, child);
    b.br(latch);

    // climb: walk up until a sibling exists or the root is reached.
    b.switch_to(climb);
    let sib = b.load(node, SIBLING);
    let has_sib = b.binop(BinOp::Ne, sib, 0i64);
    b.cond_br(has_sib, take_sibling, climb_pred);

    b.switch_to(climb_pred);
    let pred = b.load(node, PRED);
    let at_top = b.binop(BinOp::Eq, pred, 0i64);
    b.copy_into(node, pred);
    b.cond_br(at_top, at_root, climb);

    b.switch_to(take_sibling);
    b.copy_into(node, sib);
    b.br(latch);

    b.switch_to(at_root);
    b.copy_into(node, 0i64);
    b.br(latch);

    b.switch_to(latch);
    b.br(header);

    b.switch_to(exit);
    b.ret(Some(Operand::Reg(checksum)));
    header
}

/// Configuration of the mcf workload.
#[derive(Debug, Clone)]
pub struct McfConfig {
    /// Nodes in the spanning tree (root included).
    pub nodes: usize,
    /// Kernel invocations to drive (simplex pivots).
    pub invocations: usize,
    /// Arc-cost updates between invocations.
    pub cost_updates_per_invocation: usize,
    /// Leaf re-parentings between invocations (tree shape churn).
    pub reparents_per_invocation: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for McfConfig {
    fn default() -> Self {
        McfConfig {
            nodes: 600,
            invocations: 40,
            cost_updates_per_invocation: 8,
            reparents_per_invocation: 1,
            seed: 0x6d6366,
        }
    }
}

/// The `refresh_potential` workload.
#[derive(Debug, Clone)]
pub struct McfWorkload {
    config: McfConfig,
    /// Faithful kernel (potential from `pred->potential`) vs. the
    /// dependence-free control (potential from the node's own fields).
    faithful: bool,
    arena: Option<RecordArena>,
    /// parent[i] for every node except the root (node 0).
    parent: Vec<usize>,
    base_potential: i64,
    rng: StdRng,
}

impl McfWorkload {
    /// Creates the dependence-free control variant (see the module docs).
    #[must_use]
    pub fn new(config: McfConfig) -> Self {
        let rng = StdRng::seed_from_u64(config.seed);
        McfWorkload {
            config,
            faithful: false,
            arena: None,
            parent: Vec::new(),
            base_potential: 0,
            rng,
        }
    }

    /// Creates the faithful `mcf_refresh_potential_true` variant: every
    /// node's potential is computed from its predecessor's, carrying a
    /// cross-chunk memory flow dependence that only runs correctly under
    /// conflict detection.
    #[must_use]
    pub fn new_faithful(config: McfConfig) -> Self {
        McfWorkload {
            faithful: true,
            ..McfWorkload::new(config)
        }
    }

    fn arena(&self) -> &RecordArena {
        self.arena.as_ref().expect("build() must be called first")
    }

    fn args(&self) -> Vec<i64> {
        vec![self.arena().addr(0), self.base_potential]
    }

    /// Rewrites the child/sibling links in simulated memory from the
    /// host-side parent table. Children are linked in ascending node order.
    fn relink_tree(&self, mem: &mut FlatMemory) {
        let n = self.config.nodes;
        let arena = self.arena();
        let mut first_child = vec![0usize; n];
        let mut last_child = vec![0usize; n];
        for i in 0..n {
            arena.write(mem, i, CHILD, 0).expect("in bounds");
            arena.write(mem, i, SIBLING, 0).expect("in bounds");
        }
        arena.write(mem, 0, PRED, 0).expect("in bounds");
        for i in 1..n {
            let p = self.parent[i];
            arena.write(mem, i, PRED, arena.addr(p)).expect("in bounds");
            if first_child[p] == 0 {
                first_child[p] = i;
                last_child[p] = i;
                arena
                    .write(mem, p, CHILD, arena.addr(i))
                    .expect("in bounds");
            } else {
                let prev = last_child[p];
                arena
                    .write(mem, prev, SIBLING, arena.addr(i))
                    .expect("in bounds");
                last_child[p] = i;
            }
        }
    }

    /// Number of non-root nodes — the value the kernel's checksum returns.
    #[must_use]
    pub fn reference_checksum(&self) -> i64 {
        (self.config.nodes - 1) as i64
    }

    /// The potential every node should hold after an invocation (host
    /// mirror of the kernel's arithmetic). For the faithful variant this
    /// folds the whole predecessor chain, root potential first.
    #[must_use]
    pub fn reference_potential(&self, mem: &FlatMemory, node: usize) -> i64 {
        let arena = self.arena();
        let step = |n: usize, base: i64| -> i64 {
            let cost = arena.read(mem, n, COST).expect("in bounds");
            let orient = arena.read(mem, n, ORIENT).expect("in bounds");
            if orient != 0 {
                base + cost
            } else {
                base - cost
            }
        };
        if !self.faithful {
            return step(node, self.base_potential);
        }
        let mut chain = Vec::new();
        let mut n = node;
        while n != 0 {
            chain.push(n);
            n = self.parent[n];
        }
        let mut pot = self.base_potential; // the root's potential
        for &n in chain.iter().rev() {
            pot = step(n, pot);
        }
        pot
    }
}

impl SpiceWorkload for McfWorkload {
    fn name(&self) -> &'static str {
        if self.faithful {
            "mcf_true"
        } else {
            "181.mcf"
        }
    }

    fn description(&self) -> &'static str {
        if self.faithful {
            "network simplex, faithful pred-potential chain"
        } else {
            "vehicle scheduling (network simplex)"
        }
    }

    fn loop_name(&self) -> &'static str {
        if self.faithful {
            "refresh_potential_true"
        } else {
            "refresh_potential"
        }
    }

    fn paper_hotness(&self) -> f64 {
        0.30
    }

    fn conflict_policy(&self) -> spice_ir::exec::ConflictPolicy {
        // The faithful kernel's pred->potential chain *requires* detection.
        // The dependence-free control keeps Detect too, deliberately: it is
        // the suite's precision probe — the detector must never fire on it
        // (asserted by the fig7 harness), which only means something if the
        // tracking actually runs.
        spice_ir::exec::ConflictPolicy::Detect
    }

    fn build(&mut self) -> BuiltKernel {
        let mut program = Program::new();
        let arena_base = program.add_global(
            "mcf.tree",
            RecordArena::words_needed(RECORD_WORDS, self.config.nodes),
        );
        self.arena = Some(RecordArena::new(
            arena_base,
            RECORD_WORDS,
            self.config.nodes,
        ));

        // refresh_potential(root, base) -> checksum (#nodes updated).
        let mut b = FunctionBuilder::new(if self.faithful {
            "mcf_refresh_potential_true"
        } else {
            "refresh_potential"
        });
        let root = b.param();
        let base = b.param();
        emit_refresh_walk(&mut b, root, (!self.faithful).then_some(base), false);
        let kernel = program.add_func(b.finish());

        BuiltKernel {
            program,
            kernel,
            loop_header_hint: None,
        }
    }

    fn init(&mut self, mem: &mut FlatMemory) -> Vec<i64> {
        let n = self.config.nodes;
        self.parent = vec![0; n];
        // Collect RNG choices first to avoid holding two mutable borrows.
        let parents: Vec<usize> = (1..n).map(|i| self.rng.gen_range(0..i)).collect();
        let costs: Vec<(i64, i64)> = (1..n)
            .map(|_| {
                (
                    self.rng.gen_range(1..=500),
                    i64::from(self.rng.gen_bool(0.5)),
                )
            })
            .collect();
        for (i, p) in (1..n).zip(parents) {
            self.parent[i] = p;
        }
        {
            let arena = self.arena.as_mut().expect("built");
            for _ in 0..n {
                let _ = arena.alloc();
            }
        }
        let arena = self.arena();
        for (i, (cost, orient)) in (1..n).zip(costs) {
            arena.write(mem, i, COST, cost).expect("in bounds");
            arena.write(mem, i, ORIENT, orient).expect("in bounds");
        }
        arena.write(mem, 0, COST, 0).expect("in bounds");
        arena.write(mem, 0, ORIENT, 1).expect("in bounds");
        self.relink_tree(mem);
        self.base_potential = self.rng.gen_range(1_000..=2_000);
        // The faithful kernel reads the root's potential through its
        // children's pred pointers; the driver (standing in for the simplex
        // code that maintains the root) keeps it current.
        self.arena()
            .write(mem, 0, POTENTIAL, self.base_potential)
            .expect("in bounds");
        self.args()
    }

    fn next_invocation(&mut self, mem: &mut FlatMemory, invocation: usize) -> Option<Vec<i64>> {
        if invocation + 1 >= self.config.invocations {
            return None;
        }
        let n = self.config.nodes;
        // Arc cost updates (the pivot changed reduced costs).
        for _ in 0..self.config.cost_updates_per_invocation {
            let i = self.rng.gen_range(1..n);
            let cost: i64 = self.rng.gen_range(1..=500);
            self.arena().write(mem, i, COST, cost).expect("in bounds");
        }
        // Occasionally a leaf hangs off a different parent (basis exchange).
        for _ in 0..self.config.reparents_per_invocation {
            let i = self.rng.gen_range(1..n);
            // Only re-parent nodes without children to keep the tree valid.
            let is_leaf = !self.parent.iter().skip(1).any(|&p| p == i);
            if is_leaf {
                let new_parent = self.rng.gen_range(0..i);
                self.parent[i] = new_parent;
            }
        }
        self.relink_tree(mem);
        self.base_potential = self.rng.gen_range(1_000..=2_000);
        self.arena()
            .write(mem, 0, POTENTIAL, self.base_potential)
            .expect("in bounds");
        Some(self.args())
    }

    fn expected_result(&self, _mem: &FlatMemory) -> Option<i64> {
        Some(self.reference_checksum())
    }

    fn expected_iterations(&self) -> u64 {
        (self.config.nodes - 1) as u64
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
    fn walk_visits_every_node_and_updates_potentials() {
        let mut wl = McfWorkload::new(McfConfig {
            nodes: 80,
            invocations: 6,
            cost_updates_per_invocation: 4,
            reparents_per_invocation: 1,
            seed: 5,
        });
        let built = wl.build();
        let mut mem = FlatMemory::for_program(&built.program, 64 * 1024);
        let mut args = wl.init(&mut mem);
        for inv in 0.. {
            let out = run_function(&built.program, built.kernel, &args, &mut mem).unwrap();
            assert_eq!(
                out.return_value,
                Some(wl.reference_checksum()),
                "invocation {inv}"
            );
            // Every non-root node's potential matches the host mirror.
            for i in 1..80 {
                let got = wl.arena().read(&mem, i, POTENTIAL).unwrap();
                assert_eq!(got, wl.reference_potential(&mem, i), "node {i}");
            }
            match wl.next_invocation(&mut mem, inv) {
                Some(a) => args = a,
                None => break,
            }
        }
    }

    #[test]
    fn faithful_kernel_chains_potentials_through_pred() {
        let mut wl = McfWorkload::new_faithful(McfConfig {
            nodes: 60,
            invocations: 8,
            cost_updates_per_invocation: 3,
            reparents_per_invocation: 2,
            seed: 11,
        });
        assert_eq!(wl.name(), "mcf_true");
        assert_eq!(wl.loop_name(), "refresh_potential_true");
        let built = wl.build();
        let mut mem = FlatMemory::for_program(&built.program, 64 * 1024);
        let mut args = wl.init(&mut mem);
        for inv in 0.. {
            let out = run_function(&built.program, built.kernel, &args, &mut mem).unwrap();
            assert_eq!(out.return_value, Some(59), "invocation {inv}");
            for i in 1..60 {
                assert_eq!(
                    wl.arena().read(&mem, i, POTENTIAL).unwrap(),
                    wl.reference_potential(&mem, i),
                    "node {i} invocation {inv}"
                );
            }
            // Sanity: at least one non-root parent exists eventually, so the
            // chain really is deeper than one hop.
            match wl.next_invocation(&mut mem, inv) {
                Some(a) => args = a,
                None => break,
            }
        }
        assert!(
            (1..60).any(|i| wl.parent[i] != 0),
            "test tree degenerated to a star; deepen the seed"
        );
    }

    #[test]
    fn tree_mutations_preserve_traversal_completeness() {
        let mut wl = McfWorkload::new(McfConfig {
            nodes: 40,
            invocations: 12,
            cost_updates_per_invocation: 2,
            reparents_per_invocation: 3,
            seed: 9,
        });
        let built = wl.build();
        let mut mem = FlatMemory::for_program(&built.program, 32 * 1024);
        let mut args = wl.init(&mut mem);
        for inv in 0..11 {
            let out = run_function(&built.program, built.kernel, &args, &mut mem).unwrap();
            assert_eq!(out.return_value, Some(39));
            args = wl.next_invocation(&mut mem, inv).unwrap();
        }
        assert_eq!(wl.name(), "181.mcf");
        assert_eq!(wl.expected_iterations(), 39);
    }
}
