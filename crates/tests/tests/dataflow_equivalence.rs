//! Dense dataflow facts against the map-based forms they replaced.
//!
//! The register-keyed analyses of `spice-ir` (available base expressions,
//! liveness, definite assignment) hold dense facts indexed by register.
//! This file keeps the earlier `HashMap` / `HashSet` formulations as
//! test-only oracles, each solved by its own round-robin fixpoint (or, for
//! definite assignment, the verifier's former private worklist), and
//! compares them with the library on every function of every suite
//! program: both sizes, before the Spice transform and after it at 2, 3
//! and 4 threads. The verifier is also compared on use-before-def mutants
//! of every such function.
//!
//! Base expressions are solved over the address slice of the blocks asked
//! about, so they are compared, per function, for every block set a caller
//! asks about or could: all blocks, the target loop's blocks (the
//! dependence pre-screen's query), and every single block. The map-based
//! oracle solves all registers and is restricted to the same blocks
//! afterwards. Each function is also compared as a mutant that reads every
//! address through a copy made where the address register is defined, so
//! that a cross-block `Copy` chain feeds every address the suite can
//! resolve.

use std::collections::{HashMap, HashSet};

use spice_core::transform::{SpiceOptions, SpiceTransform};
use spice_ir::cfg::Cfg;
use spice_ir::dataflow::{accesses, AddrExpr, Base, DefSite, MemAccess, RegSet};
use spice_ir::exec::derive_loop_spec;
use spice_ir::liveness::Liveness;
use spice_ir::verify::{verify_function, VerifyError};
use spice_ir::{BinOp, BlockId, FuncId, Function, Inst, Operand, Program, Reg};
use spice_workloads::{all_workload_factories, workload_load_options};

/// One suite program, labelled for failure messages.
struct SuiteProgram {
    label: String,
    program: Program,
    /// The function holding the target loop; the transform keeps the loop's
    /// blocks in place in it.
    loop_func: FuncId,
    /// The target loop's blocks.
    loop_blocks: Vec<BlockId>,
}

/// Every suite program at both sizes, untransformed and transformed at 2,
/// 3 and 4 threads.
fn suite_programs() -> Vec<SuiteProgram> {
    let mut out = Vec::new();
    for small in [true, false] {
        for (name, factory) in all_workload_factories(small) {
            let mut wl = factory();
            let built = wl.build();
            let options = workload_load_options(wl.as_ref(), &built);
            let analysis = derive_loop_spec(&built.program, built.kernel, options.loop_header)
                .unwrap_or_else(|e| panic!("{name}: analysis failed: {e}"));
            let suite_program = |label: String, program: Program| SuiteProgram {
                label,
                program,
                loop_func: analysis.func,
                loop_blocks: analysis.blocks.clone(),
            };
            out.push(suite_program(
                format!("{name} small={small} untransformed"),
                built.program.clone(),
            ));
            for threads in [2, 3, 4] {
                let mut program = built.program.clone();
                SpiceTransform::new(SpiceOptions {
                    conflict_policy: options.conflict_policy,
                    ..SpiceOptions::with_threads_and_estimate(threads, wl.expected_iterations())
                })
                .apply(&mut program, &analysis)
                .unwrap_or_else(|e| panic!("{name}: transform failed at {threads} threads: {e}"));
                out.push(suite_program(
                    format!("{name} small={small} threads={threads}"),
                    program,
                ));
            }
        }
    }
    out
}

/// Every distinct function of [`suite_programs`], labelled by the first
/// program it appears in.
fn suite_functions() -> Vec<(String, Function)> {
    let mut out: Vec<(String, Function)> = Vec::new();
    for SuiteProgram { label, program, .. } in suite_programs() {
        for func in program.funcs {
            if !out.iter().any(|(_, f)| *f == func) {
                out.push((format!("{label}: {}", func.name), func));
            }
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Oracle: map-based available base expressions.
// ---------------------------------------------------------------------------

type ExprMap = HashMap<Reg, AddrExpr>;

fn add_const(e: AddrExpr, k: i64) -> AddrExpr {
    match e.base {
        Base::Unknown => AddrExpr::unknown(),
        _ => AddrExpr {
            base: e.base,
            offset: e.offset.wrapping_add(k),
        },
    }
}

fn eval_operand(map: &ExprMap, op: &Operand) -> AddrExpr {
    match op {
        Operand::Imm(v) => AddrExpr::constant(*v),
        Operand::Reg(r) => map.get(r).copied().unwrap_or_else(AddrExpr::unknown),
    }
}

fn transfer_inst(map: &mut ExprMap, block: BlockId, ip: usize, inst: &Inst) {
    let Some(dst) = inst.def() else {
        return;
    };
    let value = match inst {
        Inst::Copy { src, .. } => eval_operand(map, src),
        Inst::Binary { op, lhs, rhs, .. } => {
            let a = eval_operand(map, lhs);
            let b = eval_operand(map, rhs);
            match (op, a.as_const(), b.as_const()) {
                (BinOp::Add, Some(ka), Some(kb)) => AddrExpr::constant(ka.wrapping_add(kb)),
                (BinOp::Sub, Some(ka), Some(kb)) => AddrExpr::constant(ka.wrapping_sub(kb)),
                (BinOp::Mul, Some(ka), Some(kb)) => AddrExpr::constant(ka.wrapping_mul(kb)),
                (BinOp::Add, Some(ka), None) => add_const(b, ka),
                (BinOp::Add, None, Some(kb)) => add_const(a, kb),
                (BinOp::Sub, None, Some(kb)) => add_const(a, kb.wrapping_neg()),
                _ => AddrExpr::unknown(),
            }
        }
        Inst::Load { .. } => AddrExpr {
            base: Base::Load(DefSite { block, ip }),
            offset: 0,
        },
        _ => AddrExpr::unknown(),
    };
    map.insert(dst, value);
}

/// The map-based join: an absent side keeps the defined side, and
/// disagreement goes to `Unknown`.
fn join_exprs(into: &mut ExprMap, from: &ExprMap) {
    for (reg, expr) in from {
        match into.get_mut(reg) {
            None => {
                into.insert(*reg, *expr);
            }
            Some(have) if have != expr => *have = AddrExpr::unknown(),
            Some(_) => {}
        }
    }
}

/// Block-entry maps at the fixpoint, iterated round-robin in reverse post
/// order; unreachable blocks keep the empty map.
fn oracle_block_in(func: &Function, cfg: &Cfg) -> Vec<ExprMap> {
    let n = cfg.block_count();
    let boundary: ExprMap = func
        .params
        .iter()
        .enumerate()
        .map(|(i, r)| {
            (
                *r,
                AddrExpr {
                    base: Base::Param(i),
                    offset: 0,
                },
            )
        })
        .collect();
    let mut block_in = vec![ExprMap::new(); n];
    let mut block_out = vec![ExprMap::new(); n];
    loop {
        let mut changed = false;
        for &b in cfg.rpo() {
            let mut fact = if b == cfg.entry() {
                boundary.clone()
            } else {
                ExprMap::new()
            };
            for &p in cfg.preds(b).iter().filter(|&&p| cfg.is_reachable(p)) {
                join_exprs(&mut fact, &block_out[p.index()]);
            }
            block_in[b.index()] = fact.clone();
            for (ip, inst) in func.block(b).insts.iter().enumerate() {
                transfer_inst(&mut fact, b, ip, inst);
            }
            if fact != block_out[b.index()] {
                block_out[b.index()] = fact;
                changed = true;
            }
        }
        if !changed {
            return block_in;
        }
    }
}

/// Every load and store of `func` in block order, resolved over all of its
/// registers.
fn oracle_accesses(func: &Function, cfg: &Cfg) -> Vec<MemAccess> {
    let block_in = oracle_block_in(func, cfg);
    let mut out = Vec::new();
    for b in func.block_ids() {
        let mut map = block_in[b.index()].clone();
        for (ip, inst) in func.block(b).insts.iter().enumerate() {
            let access = match inst {
                Inst::Load { addr, offset, .. } => Some((false, addr, offset)),
                Inst::Store { addr, offset, .. } => Some((true, addr, offset)),
                _ => None,
            };
            if let Some((is_store, addr, offset)) = access {
                out.push(MemAccess {
                    site: DefSite { block: b, ip },
                    is_store,
                    expr: add_const(eval_operand(&map, addr), *offset),
                });
            }
            transfer_inst(&mut map, b, ip, inst);
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Oracle: set-based liveness.
// ---------------------------------------------------------------------------

/// `(live_in, live_out)` per block at the fixpoint of the liveness
/// equations, iterated round-robin over the reachable blocks.
fn oracle_liveness(func: &Function, cfg: &Cfg) -> (Vec<HashSet<Reg>>, Vec<HashSet<Reg>>) {
    let n = cfg.block_count();
    let mut live_in = vec![HashSet::new(); n];
    let mut live_out = vec![HashSet::new(); n];
    loop {
        let mut changed = false;
        for &b in cfg.rpo().iter().rev() {
            let out: HashSet<Reg> = cfg
                .succs(b)
                .iter()
                .flat_map(|s| live_in[s.index()].iter().copied())
                .collect();
            let block = func.block(b);
            let mut live = out.clone();
            live.extend(block.terminator.uses());
            for inst in block.insts.iter().rev() {
                if let Some(d) = inst.def() {
                    live.remove(&d);
                }
                live.extend(inst.uses());
            }
            if live != live_in[b.index()] || out != live_out[b.index()] {
                live_in[b.index()] = live;
                live_out[b.index()] = out;
                changed = true;
            }
        }
        if !changed {
            return (live_in, live_out);
        }
    }
}

// ---------------------------------------------------------------------------
// Oracle: the verifier's former private definite-assignment worklist.
// ---------------------------------------------------------------------------

/// The `UseBeforeDef` errors of `func` as the verifier's former `HashSet`
/// worklist reported them (assumes no dangling branch target).
fn oracle_use_before_def(func: &Function) -> Vec<VerifyError> {
    let nblocks = func.blocks.len();
    let nregs = func.reg_count() as u32;
    let mut errors = Vec::new();
    let mut assigned_in: Vec<Option<HashSet<Reg>>> = vec![None; nblocks];
    assigned_in[func.entry.index()] = Some(func.params.iter().copied().collect());
    let mut worklist = vec![func.entry];
    let mut reported: HashSet<(Reg, BlockId)> = HashSet::new();
    while let Some(b) = worklist.pop() {
        let mut assigned = assigned_in[b.index()].clone().unwrap_or_default();
        let block = func.block(b);
        let mut flag = |r: Reg, assigned: &HashSet<Reg>| {
            if r.0 < nregs && !assigned.contains(&r) && reported.insert((r, b)) {
                errors.push(VerifyError::UseBeforeDef {
                    func: func.name.clone(),
                    reg: r,
                    block: b,
                });
            }
        };
        for inst in &block.insts {
            for r in inst.uses() {
                flag(r, &assigned);
            }
            if let Some(d) = inst.def() {
                assigned.insert(d);
            }
        }
        for r in block.terminator.uses() {
            flag(r, &assigned);
        }
        for s in block.terminator.successors() {
            let entry = &mut assigned_in[s.index()];
            match entry {
                None => {
                    *entry = Some(assigned.clone());
                    worklist.push(s);
                }
                Some(prev) => {
                    let inter: HashSet<Reg> = prev.intersection(&assigned).copied().collect();
                    if inter.len() != prev.len() {
                        *prev = inter;
                        worklist.push(s);
                    }
                }
            }
        }
    }
    errors
}

/// The `(block, register)` pairs of `UseBeforeDef` errors, sorted.
fn sorted_use_before_def(errors: &[VerifyError]) -> Vec<(BlockId, Reg)> {
    let mut out: Vec<(BlockId, Reg)> = errors
        .iter()
        .filter_map(|e| match e {
            VerifyError::UseBeforeDef { reg, block, .. } => Some((*block, *reg)),
            _ => None,
        })
        .collect();
    out.sort();
    out
}

// ---------------------------------------------------------------------------
// Use-before-def mutants.
// ---------------------------------------------------------------------------

/// A register no path defines, read by a store inserted at the top of
/// `block` — the corruption `lint_mutations.rs` injects into the merge
/// chain, here at every block.
fn with_undefined_use(func: &Function, block: BlockId) -> Function {
    let mut f = func.clone();
    let undef = f.fresh_reg();
    f.block_mut(block).insts.insert(
        0,
        Inst::Store {
            src: Operand::Reg(undef),
            addr: Operand::Imm(0),
            offset: 0,
        },
    );
    f
}

/// The block sets base expressions are checked on for function `fid` of
/// `p`, each named for failure messages.
fn block_sets(p: &SuiteProgram, fid: FuncId) -> Vec<(String, Vec<BlockId>)> {
    let func = p.program.func(fid);
    let mut sets = vec![("all blocks".to_string(), func.block_ids())];
    if fid == p.loop_func {
        sets.push(("the target loop".to_string(), p.loop_blocks.clone()));
    }
    sets.extend(
        func.block_ids()
            .into_iter()
            .map(|b| (format!("{b}"), vec![b])),
    );
    sets
}

/// `func` reading every load and store address through a copy: each
/// definition of an address register `r` (the entry, for a parameter) is
/// followed by `r' = copy r`, and every access reads `r'` in place of `r`.
/// The copy mirrors `r` on every path, so every address resolves as before
/// (at shifted instruction indices), now through a `Copy` that may sit in
/// another block.
fn with_copied_addresses(func: &Function) -> Function {
    let mut f = func.clone();
    let mut copy_of: HashMap<Reg, Reg> = HashMap::new();
    for block in &func.blocks {
        for inst in &block.insts {
            if let Inst::Load {
                addr: Operand::Reg(r),
                ..
            }
            | Inst::Store {
                addr: Operand::Reg(r),
                ..
            } = inst
            {
                copy_of.entry(*r).or_insert_with(|| f.fresh_reg());
            }
        }
    }
    let copy = |r: Reg| {
        copy_of.get(&r).map(|&dst| Inst::Copy {
            dst,
            src: Operand::Reg(r),
        })
    };
    for block in &mut f.blocks {
        for mut inst in std::mem::take(&mut block.insts) {
            if let Inst::Load {
                addr: Operand::Reg(r),
                ..
            }
            | Inst::Store {
                addr: Operand::Reg(r),
                ..
            } = &mut inst
            {
                *r = copy_of[r];
            }
            let def = inst.def();
            block.insts.push(inst);
            block.insts.extend(def.and_then(copy));
        }
    }
    let entry = f.entry;
    let param_copies: Vec<Inst> = f.params.iter().filter_map(|&p| copy(p)).collect();
    f.block_mut(entry).insts.splice(0..0, param_copies);
    f
}

#[test]
fn base_exprs_match_the_map_based_oracle() {
    let programs = suite_programs();
    let mut functions = 0;
    let mut loop_sets = 0;
    let mut resolved = 0;
    for p in &programs {
        for fid in p.program.func_ids() {
            let original = p.program.func(fid);
            let sets = block_sets(p, fid);
            for func in [original.clone(), with_copied_addresses(original)] {
                let cfg = Cfg::new(&func);
                let full = oracle_accesses(&func, &cfg);
                // A `Param` or `Load` base is reached through a register.
                resolved += full
                    .iter()
                    .filter(|a| matches!(a.expr.base, Base::Param(_) | Base::Load(_)))
                    .count();
                for (what, blocks) in &sets {
                    let expected: Vec<MemAccess> = blocks
                        .iter()
                        .flat_map(|&b| full.iter().filter(move |a| a.site.block == b))
                        .copied()
                        .collect();
                    assert_eq!(
                        accesses(&func, &cfg, blocks),
                        expected,
                        "{}: {}: {what}",
                        p.label,
                        func.name
                    );
                }
            }
            functions += 1;
            loop_sets += sets
                .iter()
                .filter(|(what, _)| what == "the target loop")
                .count();
        }
    }
    assert!(functions > 50, "only {functions} functions");
    assert!(
        resolved > 500,
        "only {resolved} addresses resolved through a register"
    );
    assert_eq!(loop_sets, programs.len(), "one target loop per program");
}

#[test]
fn liveness_matches_the_set_based_oracle() {
    let set = |regs: &RegSet| regs.iter().collect::<HashSet<Reg>>();
    for (label, func) in &suite_functions() {
        let cfg = Cfg::new(func);
        let live = Liveness::new(func, &cfg);
        let (live_in, live_out) = oracle_liveness(func, &cfg);
        for b in func.block_ids() {
            assert_eq!(set(live.live_in(b)), live_in[b.index()], "{label}: in {b}");
            assert_eq!(
                set(live.live_out(b)),
                live_out[b.index()],
                "{label}: out {b}"
            );
        }
    }
}

/// A mutant of a function that verifies can fail only use-before-def, so
/// the verifier's whole error list is compared with the oracle's.
#[test]
fn verify_function_matches_the_worklist_oracle_on_suite_functions_and_mutants() {
    let use_before_def = |f: &Function| verify_function(f).err().unwrap_or_default();
    let mut single = 0;
    let mut multi = 0;
    for (label, func) in &suite_functions() {
        assert_eq!(verify_function(func), Ok(()), "{label}");
        assert_eq!(oracle_use_before_def(func), [], "{label}");

        // One undefined read per mutant: a single error, so the lists
        // compare exactly, order included.
        for b in func.block_ids() {
            let mutant = with_undefined_use(func, b);
            let got = use_before_def(&mutant);
            assert_eq!(got, oracle_use_before_def(&mutant), "{label}: at {b}");
            single += got.len();
        }

        // A register whose every definition is replaced by a `nop` can be
        // read in several blocks: the same errors must come out. The
        // oracle lists them in its worklist's visiting order, the library
        // in block order.
        for r in (0..func.reg_count() as u32).map(Reg) {
            let mut mutant = func.clone();
            let mut removed = false;
            for block in &mut mutant.blocks {
                for inst in block.insts.iter_mut().filter(|i| i.def() == Some(r)) {
                    *inst = Inst::Nop;
                    removed = true;
                }
            }
            if !removed {
                continue;
            }
            let got = sorted_use_before_def(&use_before_def(&mutant));
            assert_eq!(
                got,
                sorted_use_before_def(&oracle_use_before_def(&mutant)),
                "{label}: {r} never written"
            );
            multi += usize::from(got.len() > 1);
        }
    }
    assert!(single > 500, "only {single} single-error mutants");
    assert!(multi > 0, "no mutant exposed more than one read");
}
