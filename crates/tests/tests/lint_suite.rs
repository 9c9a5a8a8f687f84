//! Suite-wide positive lint coverage and the dependence cross-check.
//!
//! Three guarantees over *every* workload factory the farm dispatches:
//!
//! 1. Pre- and post-transform, each workload passes structural verification
//!    and the full speculation-safety lint stack, at every thread count and
//!    conflict granularity in the farm manifest's sweep matrix.
//! 2. The static dependence pre-screen never contradicts dynamic truth: a
//!    workload whose Spice run *measures* cross-chunk dependence violations
//!    is never classified provably-disjoint, and every workload declares
//!    exactly the policy the pre-screen recommends.
//! 3. The generated protocol keeps only the predictor words it reads: every
//!    predictor word some core stores into is one some core loads; and no
//!    squash is witnessed by a detection grain that meets the predictor
//!    range.
//! 4. Every loop copy — main's instrumented loop, each worker's clone and
//!    the lean loop — reaches its header over every back edge through one
//!    latch test that neither loads nor stores.

use std::collections::BTreeSet;

use spice_bench::experiments::LINE_GRANULARITY_LOG2;
use spice_core::backend::SimBackend;
use spice_core::lint::lint_spice;
use spice_core::predictor::NEVER;
use spice_core::transform::{SpiceOptions, SpiceTransform};
use spice_ir::cfg::Cfg;
use spice_ir::dom::DomTree;
use spice_ir::exec::{derive_loop_spec, ConflictPolicy, ExecutionBackend};
use spice_ir::verify::verify_program;
use spice_ir::{
    BinOp, BlockId, DependenceClass, Function, Inst, Operand, Reg, Terminator, TraceEvent,
};
use spice_workloads::{
    all_workload_factories, drive_loaded_workload, run_workload_on_with, workload_load_options,
};

/// Thread counts the farm manifest sweeps (`SweepMode::ALL`).
const FARM_THREADS: [usize; 2] = [2, 4];

#[test]
fn every_workload_passes_verify_and_lints_across_the_farm_matrix() {
    for (name, factory) in all_workload_factories(true) {
        for threads in FARM_THREADS {
            // The transform is granularity-invariant today; sweeping the
            // manifest's granularities here guards against that coupling
            // silently appearing.
            for granularity in [0u8, LINE_GRANULARITY_LOG2] {
                let mut wl = factory();
                let built = wl.build();
                assert!(
                    verify_program(&built.program).is_ok(),
                    "{name}: pre-transform verify failed"
                );
                let options = workload_load_options(wl.as_ref(), &built)
                    .with_conflict_granularity_log2(granularity);
                let analysis = derive_loop_spec(&built.program, built.kernel, options.loop_header)
                    .unwrap_or_else(|e| panic!("{name}: analysis failed: {e}"));
                let mut program = built.program;
                let spice = SpiceTransform::new(SpiceOptions {
                    conflict_policy: options.conflict_policy,
                    ..SpiceOptions::with_threads_and_estimate(threads, wl.expected_iterations())
                })
                .apply(&mut program, &analysis)
                .unwrap_or_else(|e| panic!("{name}: transform failed at {threads} threads: {e}"));
                if let Err(errs) = verify_program(&program) {
                    panic!("{name}: post-transform verify failed: {errs:?}");
                }
                if let Err(errs) = lint_spice(&program, &spice) {
                    let rendered: Vec<String> = errs.iter().map(|e| e.render(&program)).collect();
                    panic!(
                        "{name}: speculation-safety lints failed at {threads} threads, \
                         granularity {granularity}:\n{}",
                        rendered.join("\n")
                    );
                }
            }
        }
    }
}

#[test]
fn measured_violations_never_contradict_the_prescreen() {
    let mut saw_violations = false;
    let mut saw_disjoint = false;
    for (name, factory) in all_workload_factories(true) {
        // Static side: classify the target loop.
        let mut wl = factory();
        let built = wl.build();
        let options = workload_load_options(wl.as_ref(), &built);
        let analysis = derive_loop_spec(&built.program, built.kernel, options.loop_header)
            .unwrap_or_else(|e| panic!("{name}: analysis failed: {e}"));
        let class = analysis.dependence(&built.program).class;
        saw_disjoint |= class == DependenceClass::ProvablyDisjoint;

        // Dynamic side: run a fresh instance with detection forced on (word
        // granularity — the honest violation count) and compare.
        let mut run_wl = factory();
        let mut backend = SimBackend::new(4);
        let summary = run_workload_on_with(run_wl.as_mut(), &mut backend, |o| {
            o.with_conflict_policy(ConflictPolicy::Detect)
        })
        .unwrap_or_else(|e| panic!("{name}: detect run failed: {e}"));
        if summary.dependence_violations > 0 {
            saw_violations = true;
            assert_ne!(
                class,
                DependenceClass::ProvablyDisjoint,
                "{name}: measured {} dependence violations but the pre-screen \
                 claims the loop is provably disjoint — the classification is unsound",
                summary.dependence_violations
            );
        }
    }
    // Keep the implication non-vacuous: the suite must contain both a
    // conflict-carrying workload and a provably-disjoint one.
    assert!(saw_violations, "no workload measured any violations");
    assert!(saw_disjoint, "no workload classified provably-disjoint");
}

#[test]
fn declared_independence_is_always_provable() {
    // `AssumeIndependent` disables the conflict-detection safety net, so a
    // declaration the pre-screen cannot prove is a red flag: either the
    // declaration is wrong or the pre-screen lost precision. The converse
    // holds too — a provably disjoint loop that declares `Detect` pays for
    // tracking it cannot need — so the two must be equal, which also makes
    // the declaration derivable.
    for (name, factory) in all_workload_factories(true) {
        let mut wl = factory();
        let built = wl.build();
        let analysis = derive_loop_spec(&built.program, built.kernel, built.loop_header_hint)
            .unwrap_or_else(|e| panic!("{name}: analysis failed: {e}"));
        assert_eq!(
            wl.conflict_policy(),
            analysis.recommended_policy(&built.program),
            "{name}: the declared policy is not the one the pre-screen recommends ({:?})",
            analysis.dependence(&built.program)
        );
    }
}

/// A word the simulated code stores and no core ever loads exists only for
/// the host, and costs the measured program a store (and whatever ordering
/// it needs) for nothing. Every word of the predictor range is watched
/// through whole small-suite runs at 2, 3 and 4 threads, and each word some
/// core stores into — keyed by its global and its offset there — must be one
/// some core loads. The sets are the union over the suite at each thread
/// count and grain, so a word only a violating workload loads (the
/// throttle's `streak`) still counts.
///
/// A threshold list's terminator (`NEVER` stored into `spice.svat`) is the
/// one store held only to its global: a thread loads it only once it has
/// passed every threshold before it, which a worker whose last threshold is
/// its own chunk's end does only when its successor's prediction misses.
/// (At 4 threads the suite never loads thread 2's third slot, which otter
/// and 181.mcf store as a terminator.)
///
/// The same runs sweep 1-, 8- and 64-word detection grains. Conflict
/// detection watches the predictor words like any others, and the layout
/// keeps them out of every grain that could witness a squash: no
/// dependence-violation squash may name a grain `[addr, addr + 2^g)` that
/// meets the range.
#[test]
fn every_predictor_word_a_core_stores_is_one_a_core_loads() {
    for threads in [2, 3, 4] {
        for granularity in [0u8, 3, 6] {
            let (mut stored, mut loaded) = (BTreeSet::new(), BTreeSet::new());
            let mut terminated = BTreeSet::new();
            for (name, factory) in all_workload_factories(true) {
                let label = format!("{name} at {threads} threads, grain 2^{granularity}");
                let mut wl = factory();
                let built = wl.build();
                let options = workload_load_options(wl.as_ref(), &built)
                    .with_conflict_granularity_log2(granularity);
                let mut backend = SimBackend::tiny(threads);
                backend.enable_trace(1 << 20);
                backend
                    .load(built.program, built.kernel, options)
                    .unwrap_or_else(|e| panic!("{label}: {e}"));
                let (lo, hi) = backend
                    .runner()
                    .expect("loaded")
                    .spice()
                    .layout
                    .address_range();
                let machine = backend.machine_mut().expect("loaded");
                for addr in lo..hi {
                    machine.watch_address(addr);
                }
                drive_loaded_workload(wl.as_mut(), &mut backend)
                    .unwrap_or_else(|e| panic!("{label}: {e}"));

                let machine = backend.machine().expect("loaded");
                let trace = machine.trace().expect("tracing is on");
                assert_eq!(trace.dropped(), 0, "{label}: the trace ring overflowed");
                let word_of = |addr: i64| {
                    let globals = &machine.program().globals;
                    let g = globals
                        .iter()
                        .find(|g| g.base <= addr && addr < g.base + g.words)
                        .unwrap_or_else(|| panic!("{label}: no global holds word {addr}"));
                    (g.name.clone(), addr - g.base)
                };
                let mut stores = 0;
                for event in trace.events() {
                    match *event {
                        TraceEvent::Watch {
                            addr,
                            value,
                            is_store,
                            ..
                        } => {
                            stores += usize::from(is_store);
                            let (global, offset) = word_of(addr);
                            if !is_store {
                                loaded.insert((global, offset));
                            } else if value == NEVER && global == "spice.svat" {
                                terminated.insert(global);
                            } else {
                                stored.insert((global, offset));
                            }
                        }
                        TraceEvent::ChunkSquash {
                            forensics: Some(f), ..
                        } => assert!(
                            f.addr + (1 << granularity) <= lo || hi <= f.addr,
                            "{label}: a squash is witnessed by grain {} of the \
                             predictor range [{lo}, {hi})",
                            f.addr
                        ),
                        _ => {}
                    }
                }
                assert!(stores > 0, "{label}: no predictor word was stored");
            }
            let label = format!("{threads} threads, grain 2^{granularity}");
            let host_only: Vec<&(String, i64)> = stored.difference(&loaded).collect();
            assert!(
                host_only.is_empty(),
                "{label}: stored but never loaded by any core on the suite: {host_only:?}"
            );
            for global in &terminated {
                assert!(
                    loaded.iter().any(|(g, _)| g == global),
                    "{label}: {global} is terminated but never loaded"
                );
            }
        }
    }
}

/// The `(label, block)` of `func`'s first block labelled `label`.
fn labelled(func: &Function, label: &str) -> BlockId {
    func.block_ids()
        .into_iter()
        .find(|&b| func.block(b).label.as_deref() == Some(label))
        .unwrap_or_else(|| panic!("{}: no {label} block", func.name))
}

/// Checks one loop copy of `func`, with header `header`, whose latch tests
/// leave for `slow`: every back edge (an edge into the header from a block
/// the header dominates) leaves a block that ends in the latch test — one
/// in-place `my_work += 1`, then only arithmetic (no load, no store, no
/// copy), then `condbr slow, slow_bb, header` on the last result — and
/// that block is entered from no other latch test. Returns the number of
/// back edges.
fn assert_latch_tests(func: &Function, header: BlockId, slow: BlockId, what: &str) -> usize {
    let cfg = Cfg::new(func);
    let dom = DomTree::new(&cfg);
    // The in-place `+= 1`s of block `b`, as `(ip, register)`.
    let bumps = |b: BlockId| -> Vec<(usize, Reg)> {
        let insts = func.block(b).insts.iter().enumerate();
        insts
            .filter_map(|(ip, i)| match i {
                Inst::Binary {
                    op: BinOp::Add,
                    dst,
                    lhs: Operand::Reg(l),
                    rhs: Operand::Imm(1),
                } if dst == l => Some((ip, *dst)),
                _ => None,
            })
            .collect()
    };
    let mut work = None;
    let mut back_edges = 0;
    for b in func.block_ids() {
        if !cfg.succs(b).contains(&header) || !dom.dominates(header, b) {
            continue;
        }
        back_edges += 1;
        let block = func.block(b);
        let Terminator::CondBr {
            cond: Operand::Reg(slow_reg),
            then_bb,
            else_bb,
        } = block.terminator
        else {
            panic!(
                "{what}: back edge {b} -> {header} is `{}`",
                block.terminator
            );
        };
        assert_eq!((then_bb, else_bb), (slow, header), "{what}: latch test {b}");
        let &(ip, counter) = bumps(b)
            .last()
            .unwrap_or_else(|| panic!("{what}: latch test {b} counts no iteration"));
        assert_eq!(
            *work.get_or_insert(counter),
            counter,
            "{what}: one work counter"
        );
        let test = &block.insts[ip..];
        assert!(
            test.iter().all(|i| matches!(i, Inst::Binary { .. })),
            "{what}: latch test {b} holds more than arithmetic: {test:?}"
        );
        assert_eq!(
            test.last().and_then(Inst::def),
            Some(slow_reg),
            "{what}: {b}"
        );
        let counts = |p: BlockId| bumps(p).iter().filter(|&&(_, r)| r == counter).count();
        assert_eq!(counts(b), 1, "{what}: {b} counts the iteration once");
        for &p in cfg.preds(b).iter().filter(|&&p| p != b) {
            assert_eq!(counts(p), 0, "{what}: {p} counts before latch test {b}");
        }
    }
    back_edges
}

/// Every loop copy's back edges carry the latch test, on every workload of
/// the suite at 2, 3 and 4 threads, under both conflict policies (the lean
/// loop exists only under detection): main's instrumented loop leaves for
/// `spice.check`, each worker's clone for its `spice.check`, the lean loop
/// for `spice.lean.memo`. No copy loads on its back edges: the threshold
/// is a register the slow path loads (and a worker's entry block loads
/// nothing, `transform::tests::no_worker_entry_block_loads`).
#[test]
fn every_back_edge_carries_one_latch_test() {
    for (name, factory) in all_workload_factories(true) {
        for threads in [2, 3, 4] {
            for policy in [ConflictPolicy::Detect, ConflictPolicy::AssumeIndependent] {
                let label = format!("{name} at {threads} threads under {policy:?}");
                let mut wl = factory();
                let built = wl.build();
                let options = workload_load_options(wl.as_ref(), &built);
                let analysis = derive_loop_spec(&built.program, built.kernel, options.loop_header)
                    .unwrap_or_else(|e| panic!("{label}: analysis failed: {e}"));
                let mut program = built.program;
                let spice = SpiceTransform::new(SpiceOptions {
                    conflict_policy: policy,
                    ..SpiceOptions::with_threads_and_estimate(threads, wl.expected_iterations())
                })
                .apply(&mut program, &analysis)
                .unwrap_or_else(|e| panic!("{label}: transform failed: {e}"));
                let main = program.func(spice.main);
                let shape = &spice.shape;
                let n = assert_latch_tests(main, shape.header, shape.check, &label);
                assert_eq!(n, analysis.latches.len(), "{label}: main's back edges");
                if let Some(serial) = &shape.serial {
                    let lean = format!("{label}, lean loop");
                    let n = assert_latch_tests(main, serial.lean, serial.lean_memo, &lean);
                    assert_eq!(n, analysis.latches.len(), "{lean}: back edges");
                }
                assert_eq!(shape.serial.is_some(), policy.detects(), "{label}");
                for w in &spice.workers {
                    let worker = program.func(w.func);
                    let what = format!("{label}, {}", worker.name);
                    let memo = labelled(worker, "spice.memo");
                    let Terminator::CondBr {
                        else_bb: header, ..
                    } = worker.block(memo).terminator
                    else {
                        panic!("{what}: spice.memo is not a threshold test");
                    };
                    let check = labelled(worker, "spice.check");
                    let n = assert_latch_tests(worker, header, check, &what);
                    assert_eq!(n, analysis.latches.len(), "{what}: back edges");
                }
            }
        }
    }
}
