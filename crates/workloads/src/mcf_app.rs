//! `mcf_app` — a miniature min-cost-flow application around
//! `refresh_potential_true`.
//!
//! Every other Table 2 workload is a *kernel* under a synthetic driver: the
//! host mutates the data structures between invocations and quotes the
//! paper's whole-application hotness as a constant. This module grows the
//! mcf driver into a miniature network-simplex *application*: each benchmark
//! invocation is one simplex **pivot**, executed end-to-end as measured IR
//! on whichever backend runs it —
//!
//! 1. `select_entering_arc` — scan the candidate arc list and pick the arc
//!    with the most negative reduced cost (`pot[from] ± cost − pot[to]`),
//!    the simplex entering-arc rule;
//! 2. `apply_basis_exchange` — validate the pivot (the re-parented node must
//!    not be the root or an ancestor of the arc's tail — an ancestry climb
//!    through `pred` pointers), rewrite the node's basic arc
//!    (`pred`/`cost`/`orient`), and rebuild the first-child/next-sibling
//!    links from the `pred` fields — the IR form of the driver's old
//!    host-side `relink_tree`, using a `last_child` scratch array;
//! 3. the **hot inner loop**: `refresh_potential_true` walks the whole tree
//!    and recomputes every node's potential from `node->pred->potential`,
//!    exactly the faithful kernel of [`crate::mcf`] — this is the loop the
//!    Spice transformation targets (`loop_header_hint`), while phases 1–2
//!    run as serial IR on the main thread.
//!
//! Because the pivot phases are program code rather than host-side setup,
//! whole-program hotness is *measured* (profiler cycle attribution over the
//! simulated run) instead of quoted: Table 2's `measured_hotness` column for
//! the `mcf_app` row divides the cycles attributed to the refresh loop by
//! the cycles of the whole program. [`SpiceWorkload::paper_hotness`] (mcf's
//! 30% from the paper) is kept purely as the comparison column.
//!
//! [`HostMcfApp`] is an independent pure-Rust implementation of the same
//! application (same arc selection, same validity rule, same integer
//! arithmetic); the differential test layer (`mcf_app_differential.rs`)
//! pins both execution backends and the host implementation to bit-identical
//! per-pivot checksums and final potentials.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use spice_ir::builder::FunctionBuilder;
use spice_ir::exec::ConflictPolicy;
use spice_ir::interp::FlatMemory;
use spice_ir::{BinOp, FuncId, Operand, Program};

use crate::arena::RecordArena;
use crate::mcf::{emit_refresh_walk, CHILD, COST, ORIENT, POTENTIAL, PRED, RECORD_WORDS, SIBLING};
use crate::{BuiltKernel, SpiceWorkload};

// Candidate-arc record layout.
const AFROM: i64 = 0;
const ATO: i64 = 1;
const ACOST: i64 = 2;
const AORIENT: i64 = 3;
const ARC_WORDS: i64 = 4;

/// Configuration of the miniature mcf application.
#[derive(Debug, Clone)]
pub struct McfAppConfig {
    /// Nodes in the spanning tree (root included).
    pub nodes: usize,
    /// Candidate entering arcs in the network.
    pub arcs: usize,
    /// Simplex pivots to run — one per benchmark invocation.
    pub pivots: usize,
    /// RNG seed for the instance generator.
    pub seed: u64,
}

impl Default for McfAppConfig {
    fn default() -> Self {
        // Matches `suite::app_benchmarks`: ~0.6 candidate arcs per node
        // keeps the measured whole-program profile in the real
        // application's regime (see DESIGN.md §3.5).
        McfAppConfig {
            nodes: 2_500,
            arcs: 1_500,
            pivots: 10,
            seed: 0x6d63_6661,
        }
    }
}

/// A seeded random flow-network instance: the initial spanning tree (parent
/// per non-root node, with the basic arc's cost and orientation) plus the
/// candidate arc list. Generated once per config; the IR workload writes it
/// into simulated memory and [`HostMcfApp`] consumes it directly, so both
/// start from the identical network.
#[derive(Debug, Clone)]
pub struct McfAppInstance {
    /// parent\[i\] for every node; entry 0 (the root) is unused.
    pub parent: Vec<usize>,
    /// Basic-arc cost per node (0 for the root).
    pub cost: Vec<i64>,
    /// Basic-arc orientation per node (potential grows through the arc when
    /// nonzero).
    pub orient: Vec<i64>,
    /// Candidate entering arcs as `(from, to, cost, orient)` slot tuples.
    pub arcs: Vec<(usize, usize, i64, i64)>,
    /// The root's (fixed) potential.
    pub base_potential: i64,
}

impl McfAppInstance {
    /// Generates the instance for `config` (deterministic in the seed).
    #[must_use]
    pub fn generate(config: &McfAppConfig) -> Self {
        let n = config.nodes;
        assert!(n >= 2, "the network needs a root and at least one node");
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut parent = vec![0usize; n];
        for (i, p) in parent.iter_mut().enumerate().skip(1) {
            *p = rng.gen_range(0..i);
        }
        let mut cost = vec![0i64; n];
        let mut orient = vec![0i64; n];
        orient[0] = 1;
        for i in 1..n {
            cost[i] = rng.gen_range(1..=500);
            orient[i] = i64::from(rng.gen_bool(0.5));
        }
        let mut arcs = Vec::with_capacity(config.arcs);
        for _ in 0..config.arcs {
            let (u, v) = loop {
                let u = rng.gen_range(0..n);
                let v = rng.gen_range(1..n);
                if u != v {
                    break (u, v);
                }
            };
            arcs.push((u, v, rng.gen_range(1..=500), i64::from(rng.gen_bool(0.5))));
        }
        McfAppInstance {
            parent,
            cost,
            orient,
            arcs,
            base_potential: rng.gen_range(1_000..=2_000),
        }
    }
}

/// Folds every node's potential from the root through the current
/// `pred`/`cost`/`orient` chain — the value the refresh loop leaves behind
/// (it visits parents before children, so the traversal result equals the
/// path fold).
fn chain_potentials(parent: &[usize], cost: &[i64], orient: &[i64], base: i64) -> Vec<i64> {
    let n = parent.len();
    const UNSET: i64 = i64::MIN;
    let mut pot = vec![UNSET; n];
    pot[0] = base;
    let mut stack = Vec::new();
    for i in 1..n {
        if pot[i] != UNSET {
            continue;
        }
        stack.clear();
        let mut cur = i;
        while pot[cur] == UNSET {
            stack.push(cur);
            cur = parent[cur];
        }
        let mut p = pot[cur];
        for &s in stack.iter().rev() {
            p = if orient[s] != 0 {
                p + cost[s]
            } else {
                p - cost[s]
            };
            pot[s] = p;
        }
    }
    pot
}

/// One pivot of the network-simplex reference: arc selection, validity
/// check, basis exchange and potential refresh over slot-indexed host
/// arrays. This is the single reference implementation behind both
/// [`HostMcfApp`] and the per-invocation expectation the workload hands to
/// `run_workload_on`; it mirrors the kernel's integer arithmetic exactly.
/// Returns the pivot's checksum (the sum of all non-root potentials).
fn host_pivot(
    parent: &mut [usize],
    cost: &mut [i64],
    orient: &mut [i64],
    potential: &mut Vec<i64>,
    arcs: &[(usize, usize, i64, i64)],
    base_potential: i64,
) -> i64 {
    // Entering-arc selection: most negative reduced cost, first wins ties
    // (the kernel scans ascending with a strict comparison).
    let mut best: i64 = -1;
    let mut best_red: i64 = 0;
    for (i, &(u, v, c, o)) in arcs.iter().enumerate() {
        let cand = if o != 0 {
            potential[u] + c
        } else {
            potential[u] - c
        };
        let red = cand - potential[v];
        if red < best_red {
            best = i as i64;
            best_red = red;
        }
    }
    if best >= 0 {
        let (u, v, c, o) = arcs[best as usize];
        // The root keeps its basic arc; a node may not become its own
        // ancestor (climb from `u` through pred; mirrors the kernel's
        // null-check-first climb).
        let acyclic = v != 0 && {
            let mut cur = u;
            loop {
                if cur == v {
                    break false;
                }
                if cur == 0 {
                    break true;
                }
                cur = parent[cur];
            }
        };
        if acyclic {
            parent[v] = u;
            cost[v] = c;
            orient[v] = o;
        }
    }
    *potential = chain_potentials(parent, cost, orient, base_potential);
    potential[1..].iter().sum()
}

/// The pure-host mini-application: the same network simplex as the IR
/// program, over plain Rust arrays. One [`HostMcfApp::pivot`] call per
/// benchmark invocation; never touches simulated memory, so it is the
/// independent leg of the three-way differential test.
#[derive(Debug, Clone)]
pub struct HostMcfApp {
    parent: Vec<usize>,
    cost: Vec<i64>,
    orient: Vec<i64>,
    potential: Vec<i64>,
    arcs: Vec<(usize, usize, i64, i64)>,
    base_potential: i64,
}

impl HostMcfApp {
    /// Builds the host application for `config`'s generated instance.
    #[must_use]
    pub fn new(config: &McfAppConfig) -> Self {
        HostMcfApp::from_instance(McfAppInstance::generate(config))
    }

    /// Builds the host application from an explicit instance.
    #[must_use]
    pub fn from_instance(inst: McfAppInstance) -> Self {
        let potential =
            chain_potentials(&inst.parent, &inst.cost, &inst.orient, inst.base_potential);
        HostMcfApp {
            parent: inst.parent,
            cost: inst.cost,
            orient: inst.orient,
            potential,
            arcs: inst.arcs,
            base_potential: inst.base_potential,
        }
    }

    /// Runs one pivot and returns its checksum (sum of non-root potentials).
    pub fn pivot(&mut self) -> i64 {
        host_pivot(
            &mut self.parent,
            &mut self.cost,
            &mut self.orient,
            &mut self.potential,
            &self.arcs,
            self.base_potential,
        )
    }

    /// The node potentials after the last pivot (root included).
    #[must_use]
    pub fn potentials(&self) -> &[i64] {
        &self.potential
    }
}

/// The miniature network-simplex application workload. See the module docs.
#[derive(Debug, Clone)]
pub struct McfAppWorkload {
    config: McfAppConfig,
    instance: McfAppInstance,
    arena: Option<RecordArena>,
    arcs_base: i64,
}

impl McfAppWorkload {
    /// Creates the workload for `config` (instance generated immediately).
    #[must_use]
    pub fn new(config: McfAppConfig) -> Self {
        let instance = McfAppInstance::generate(&config);
        McfAppWorkload {
            config,
            instance,
            arena: None,
            arcs_base: 0,
        }
    }

    /// The generated network instance (for differential tests).
    #[must_use]
    pub fn instance(&self) -> &McfAppInstance {
        &self.instance
    }

    /// Number of nodes in the network.
    #[must_use]
    pub fn nodes(&self) -> usize {
        self.config.nodes
    }

    fn arena(&self) -> &RecordArena {
        self.arena.as_ref().expect("build() must be called first")
    }

    /// Reads node `i`'s potential from simulated memory.
    ///
    /// # Panics
    ///
    /// Panics if `build()` has not run or the read is out of bounds.
    #[must_use]
    pub fn potential(&self, mem: &FlatMemory, i: usize) -> i64 {
        self.arena().read(mem, i, POTENTIAL).expect("in bounds")
    }

    /// Snapshots the network state *from simulated memory* into host arrays
    /// — the basis for the per-invocation expectation, so the reference
    /// follows whatever state the kernel actually left behind.
    fn snapshot(&self, mem: &FlatMemory) -> (Vec<usize>, Vec<i64>, Vec<i64>, Vec<i64>) {
        let n = self.config.nodes;
        let arena = self.arena();
        let mut parent = vec![0usize; n];
        let mut cost = vec![0i64; n];
        let mut orient = vec![0i64; n];
        let mut potential = vec![0i64; n];
        for i in 0..n {
            potential[i] = arena.read(mem, i, POTENTIAL).expect("in bounds");
            cost[i] = arena.read(mem, i, COST).expect("in bounds");
            orient[i] = arena.read(mem, i, ORIENT).expect("in bounds");
            if i > 0 {
                let pred = arena.read(mem, i, PRED).expect("in bounds");
                parent[i] = arena.slot_of(pred).expect("pred points at a node");
            }
        }
        (parent, cost, orient, potential)
    }

    /// Rebuilds the child/sibling links in simulated memory from the current
    /// `pred` fields, children in ascending slot order — the host mirror of
    /// the relink the IR performs each pivot, used only to seed the initial
    /// image.
    fn relink_initial(&self, mem: &mut FlatMemory) {
        let n = self.config.nodes;
        let arena = self.arena();
        let mut last_child = vec![0i64; n];
        for i in 0..n {
            arena.write(mem, i, CHILD, 0).expect("in bounds");
            arena.write(mem, i, SIBLING, 0).expect("in bounds");
        }
        for i in 1..n {
            let p = self.instance.parent[i];
            let addr = arena.addr(i);
            if last_child[p] == 0 {
                arena.write(mem, p, CHILD, addr).expect("in bounds");
            } else {
                let last = arena.slot_of(last_child[p]).expect("node addr");
                arena.write(mem, last, SIBLING, addr).expect("in bounds");
            }
            last_child[p] = addr;
        }
    }
}

/// Builds `select_entering_arc`: scans the arc list and returns the index of
/// the arc with the most negative reduced cost, or −1 when every reduced
/// cost is non-negative (the basis is optimal — the pivot degenerates to a
/// bare refresh).
fn build_select(program: &mut Program, arcs_base: i64, n_arcs: i64) -> FuncId {
    let mut b = FunctionBuilder::new("select_entering_arc");
    let header = b.new_labeled_block("sel.header");
    let body = b.new_labeled_block("sel.body");
    let latch = b.new_labeled_block("sel.latch");
    let exit = b.new_labeled_block("sel.exit");
    let i = b.copy(0i64);
    let best = b.copy(-1i64);
    let best_red = b.copy(0i64);
    b.br(header);
    b.switch_to(header);
    let done = b.binop(BinOp::Ge, i, n_arcs);
    b.cond_br(done, exit, body);
    b.switch_to(body);
    let off = b.binop(BinOp::Mul, i, ARC_WORDS);
    let rec = b.binop(BinOp::Add, off, arcs_base);
    let from = b.load(rec, AFROM);
    let to = b.load(rec, ATO);
    let c = b.load(rec, ACOST);
    let o = b.load(rec, AORIENT);
    let pf = b.load(from, POTENTIAL);
    let pt = b.load(to, POTENTIAL);
    let up = b.binop(BinOp::Add, pf, c);
    let down = b.binop(BinOp::Sub, pf, c);
    let cand = b.select(o, up, down);
    let red = b.binop(BinOp::Sub, cand, pt);
    let better = b.binop(BinOp::Lt, red, best_red);
    let nb = b.select(better, i, best);
    b.copy_into(best, nb);
    let nr = b.select(better, red, best_red);
    b.copy_into(best_red, nr);
    b.br(latch);
    b.switch_to(latch);
    let i2 = b.binop(BinOp::Add, i, 1i64);
    b.copy_into(i, i2);
    b.br(header);
    b.switch_to(exit);
    b.ret(Some(Operand::Reg(best)));
    program.add_func(b.finish())
}

/// Builds `apply_basis_exchange(arc_idx)`: validity check (ancestry climb),
/// basic-arc rewrite, and the full child/sibling relink from the `pred`
/// fields (IR form of the driver's old `relink_tree`, with a `last_child`
/// scratch array). Returns 1 when the exchange was applied.
#[allow(clippy::too_many_arguments)]
fn build_update(
    program: &mut Program,
    tree_base: i64,
    scratch_base: i64,
    arcs_base: i64,
    root: i64,
    n_nodes: i64,
) -> FuncId {
    let mut b = FunctionBuilder::new("apply_basis_exchange");
    let idx = b.param();
    let check = b.new_labeled_block("upd.check");
    let climb_h = b.new_labeled_block("upd.climb");
    let climb_chk = b.new_labeled_block("upd.climb_chk");
    let climb_step = b.new_labeled_block("upd.climb_step");
    let apply = b.new_labeled_block("upd.apply");
    let clear_h = b.new_labeled_block("upd.clear_header");
    let clear_body = b.new_labeled_block("upd.clear_body");
    let link_h = b.new_labeled_block("upd.link_header");
    let link_body = b.new_labeled_block("upd.link_body");
    let link_first = b.new_labeled_block("upd.link_first");
    let link_sib = b.new_labeled_block("upd.link_sibling");
    let link_done = b.new_labeled_block("upd.link_done");
    let exit = b.new_labeled_block("upd.exit");

    let applied = b.copy(0i64);
    let u = b.copy(0i64);
    let v = b.copy(0i64);
    let c = b.copy(0i64);
    let o = b.copy(0i64);
    let cur = b.copy(0i64);
    let i = b.copy(0i64);
    let j = b.copy(1i64);
    let has = b.binop(BinOp::Ge, idx, 0i64);
    b.cond_br(has, check, clear_h);

    b.switch_to(check);
    let off = b.binop(BinOp::Mul, idx, ARC_WORDS);
    let rec = b.binop(BinOp::Add, off, arcs_base);
    b.load_into(u, rec, AFROM);
    b.load_into(v, rec, ATO);
    b.load_into(c, rec, ACOST);
    b.load_into(o, rec, AORIENT);
    let v_is_root = b.binop(BinOp::Eq, v, root);
    b.copy_into(cur, u);
    b.cond_br(v_is_root, clear_h, climb_h);

    // Ancestry climb from `u`: reaching the null pred validates the pivot,
    // meeting `v` on the way up would create a cycle.
    b.switch_to(climb_h);
    let at_top = b.binop(BinOp::Eq, cur, 0i64);
    b.cond_br(at_top, apply, climb_chk);
    b.switch_to(climb_chk);
    let cyc = b.binop(BinOp::Eq, cur, v);
    b.cond_br(cyc, clear_h, climb_step);
    b.switch_to(climb_step);
    let up_ptr = b.load(cur, PRED);
    b.copy_into(cur, up_ptr);
    b.br(climb_h);

    b.switch_to(apply);
    b.store(u, v, PRED);
    b.store(c, v, COST);
    b.store(o, v, ORIENT);
    b.copy_into(applied, 1i64);
    b.br(clear_h);

    // Phase 1 of the relink: zero every child/sibling link and the
    // last_child scratch slot.
    b.switch_to(clear_h);
    let cdone = b.binop(BinOp::Ge, i, n_nodes);
    b.cond_br(cdone, link_h, clear_body);
    b.switch_to(clear_body);
    let noff = b.binop(BinOp::Mul, i, RECORD_WORDS);
    let node = b.binop(BinOp::Add, noff, tree_base);
    b.store(0i64, node, CHILD);
    b.store(0i64, node, SIBLING);
    let sl = b.binop(BinOp::Add, i, scratch_base);
    b.store(0i64, sl, 0);
    let i2 = b.binop(BinOp::Add, i, 1i64);
    b.copy_into(i, i2);
    b.br(clear_h);

    // Phase 2: append every non-root node to its parent's child list in
    // ascending slot order (first via `child`, later via the previous
    // child's `sibling`, tracked per parent in the scratch array).
    b.switch_to(link_h);
    let ldone = b.binop(BinOp::Ge, j, n_nodes);
    b.cond_br(ldone, exit, link_body);
    b.switch_to(link_body);
    let joff = b.binop(BinOp::Mul, j, RECORD_WORDS);
    let jnode = b.binop(BinOp::Add, joff, tree_base);
    let p = b.load(jnode, PRED);
    let pdelta = b.binop(BinOp::Sub, p, tree_base);
    let pslot = b.binop(BinOp::Div, pdelta, RECORD_WORDS);
    let pscratch = b.binop(BinOp::Add, pslot, scratch_base);
    let last = b.load(pscratch, 0);
    let have_last = b.binop(BinOp::Ne, last, 0i64);
    b.cond_br(have_last, link_sib, link_first);
    b.switch_to(link_first);
    b.store(jnode, p, CHILD);
    b.br(link_done);
    b.switch_to(link_sib);
    b.store(jnode, last, SIBLING);
    b.br(link_done);
    b.switch_to(link_done);
    b.store(jnode, pscratch, 0);
    let j2 = b.binop(BinOp::Add, j, 1i64);
    b.copy_into(j, j2);
    b.br(link_h);

    b.switch_to(exit);
    b.ret(Some(Operand::Reg(applied)));
    program.add_func(b.finish())
}

impl SpiceWorkload for McfAppWorkload {
    fn name(&self) -> &'static str {
        "mcf_app"
    }

    fn description(&self) -> &'static str {
        "miniature network simplex (hotness measured, not quoted)"
    }

    fn loop_name(&self) -> &'static str {
        "refresh_potential_true"
    }

    fn paper_hotness(&self) -> f64 {
        // The paper's Table 2 number for 181.mcf — kept as the comparison
        // column next to the *measured* whole-program hotness.
        0.30
    }

    fn conflict_policy(&self) -> ConflictPolicy {
        // The refresh loop chains potentials through `pred->potential`; the
        // conflict-detection subsystem is load-bearing for correctness.
        ConflictPolicy::Detect
    }

    fn build(&mut self) -> BuiltKernel {
        let n = self.config.nodes;
        let m = self.config.arcs;
        let mut program = Program::new();
        let tree_base =
            program.add_global("mcf_app.tree", RecordArena::words_needed(RECORD_WORDS, n));
        let arcs_base = program.add_global("mcf_app.arcs", ARC_WORDS * m as i64);
        let scratch_base = program.add_global("mcf_app.last_child", n as i64);
        self.arena = Some(RecordArena::new(tree_base, RECORD_WORDS, n));
        self.arcs_base = arcs_base;
        let root = tree_base;

        let select = build_select(&mut program, arcs_base, m as i64);
        let update = build_update(
            &mut program,
            tree_base,
            scratch_base,
            arcs_base,
            root,
            n as i64,
        );

        // mcf_app() -> checksum: one pivot — the serial phases as calls,
        // then the refresh walk inline (the Spice target loop): the faithful
        // potential chain (pred->potential), and the checksum accumulates
        // the potentials themselves so the scalar result is data-dependent
        // on every store.
        let mut b = FunctionBuilder::new("mcf_app");
        let idx = b.call(select, vec![]);
        let _applied = b.call(update, vec![Operand::Reg(idx)]);
        let header = emit_refresh_walk(&mut b, root, None, true);
        let kernel = program.add_func(b.finish());

        BuiltKernel {
            program,
            kernel,
            loop_header_hint: Some(header),
        }
    }

    fn init(&mut self, mem: &mut FlatMemory) -> Vec<i64> {
        let n = self.config.nodes;
        {
            let arena = self.arena.as_mut().expect("built");
            for _ in 0..n {
                let _ = arena.alloc();
            }
        }
        let inst = self.instance.clone();
        let potentials =
            chain_potentials(&inst.parent, &inst.cost, &inst.orient, inst.base_potential);
        let arena = self.arena();
        for (i, &pot) in potentials.iter().enumerate() {
            arena.write(mem, i, COST, inst.cost[i]).expect("in bounds");
            arena
                .write(mem, i, ORIENT, inst.orient[i])
                .expect("in bounds");
            let pred = if i == 0 {
                0
            } else {
                arena.addr(inst.parent[i])
            };
            arena.write(mem, i, PRED, pred).expect("in bounds");
            arena.write(mem, i, POTENTIAL, pot).expect("in bounds");
        }
        self.relink_initial(mem);
        for (i, &(u, v, c, o)) in self.instance.arcs.iter().enumerate() {
            let rec = self.arcs_base + ARC_WORDS * i as i64;
            let arena = self.arena();
            mem.write(rec + AFROM, arena.addr(u)).expect("in bounds");
            mem.write(rec + ATO, arena.addr(v)).expect("in bounds");
            mem.write(rec + ACOST, c).expect("in bounds");
            mem.write(rec + AORIENT, o).expect("in bounds");
        }
        Vec::new()
    }

    fn next_invocation(&mut self, _mem: &mut FlatMemory, invocation: usize) -> Option<Vec<i64>> {
        // The application drives itself: every pivot's input state is the
        // previous pivot's output state, with no host-side mutation at all.
        (invocation + 1 < self.config.pivots).then(Vec::new)
    }

    fn expected_result(&self, mem: &FlatMemory) -> Option<i64> {
        let (mut parent, mut cost, mut orient, mut potential) = self.snapshot(mem);
        Some(host_pivot(
            &mut parent,
            &mut cost,
            &mut orient,
            &mut potential,
            &self.instance.arcs,
            self.instance.base_potential,
        ))
    }

    fn expected_iterations(&self) -> u64 {
        (self.config.nodes - 1) as u64
    }

    fn invocations(&self) -> usize {
        self.config.pivots
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spice_ir::interp::run_function;

    fn small_config(seed: u64) -> McfAppConfig {
        McfAppConfig {
            nodes: 70,
            arcs: 160,
            pivots: 10,
            seed,
        }
    }

    #[test]
    fn program_verifies_and_loop_hint_is_the_refresh_header() {
        let mut wl = McfAppWorkload::new(small_config(1));
        let built = wl.build();
        spice_ir::verify::verify_program(&built.program).expect("verified");
        assert_eq!(built.program.funcs.len(), 3);
        assert!(built.loop_header_hint.is_some());
        // The hinted loop exists in the kernel function and carries the
        // faithful pred->potential chain.
        let spec =
            spice_ir::exec::derive_loop_spec(&built.program, built.kernel, built.loop_header_hint)
                .expect("refresh loop is chunkable");
        assert_eq!(spec.cursors.len(), 1, "one speculated cursor (node)");
        assert_eq!(spec.reductions.len(), 1, "the checksum sum reduction");
    }

    #[test]
    fn kernel_pivots_match_the_pure_host_application() {
        for seed in [3u64, 5, 9] {
            let config = small_config(seed);
            let mut wl = McfAppWorkload::new(config.clone());
            let mut host = HostMcfApp::new(&config);
            let built = wl.build();
            let mut mem = FlatMemory::for_program(&built.program, 64 * 1024);
            let mut args = wl.init(&mut mem);
            for inv in 0.. {
                let expected = wl.expected_result(&mem).unwrap();
                let host_ck = host.pivot();
                assert_eq!(
                    expected, host_ck,
                    "seed {seed} pivot {inv}: references diverge"
                );
                let out = run_function(&built.program, built.kernel, &args, &mut mem).unwrap();
                assert_eq!(
                    out.return_value,
                    Some(host_ck),
                    "seed {seed} pivot {inv}: kernel diverged from host"
                );
                for i in 1..config.nodes {
                    assert_eq!(
                        wl.potential(&mem, i),
                        host.potentials()[i],
                        "seed {seed} pivot {inv} node {i}"
                    );
                }
                match wl.next_invocation(&mut mem, inv) {
                    Some(a) => args = a,
                    None => break,
                }
            }
        }
    }

    #[test]
    fn pivots_actually_exchange_the_basis() {
        // The instance must not be degenerate: at least one pivot applies a
        // basis exchange (otherwise the serial phases never mutate the tree
        // and the "application" collapses back into a replayed kernel).
        let config = small_config(7);
        let mut host = HostMcfApp::new(&config);
        let before = host.parent.clone();
        for _ in 0..config.pivots {
            let _ = host.pivot();
        }
        assert_ne!(before, host.parent, "no pivot ever re-parented a node");
    }

    #[test]
    fn checksum_is_data_dependent_on_the_potentials() {
        let config = small_config(11);
        let mut host = HostMcfApp::new(&config);
        let first = host.pivot();
        let expected: i64 = host.potentials()[1..].iter().sum();
        assert_eq!(first, expected);
    }
}
