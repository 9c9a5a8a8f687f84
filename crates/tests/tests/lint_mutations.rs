//! Mutation tests for the speculation-safety lint stack.
//!
//! Each test takes a *valid* Spice-transformed program, applies one targeted
//! corruption — the kind a buggy transform change would introduce — and
//! asserts that the *specific* lint (or verifier error) fires. Together they
//! prove every lint in the catalog has at least one triggering input, so a
//! regression that silently disables a lint is caught here rather than by a
//! production miscompile.

use spice_core::analysis::derive_loop_spec;
use spice_core::lint::{check_protocol_metadata, lint_spice, LintError, SerialShape};
use spice_core::transform::{SpiceOptions, SpiceParallelLoop, SpiceTransform, TransformError};
use spice_ir::builder::FunctionBuilder;
use spice_ir::exec::ConflictPolicy;
use spice_ir::verify::{verify_program, VerifyError};
use spice_ir::{BinOp, BlockId, DecodedProgram, FuncId, Inst, Operand, Program, Terminator};

/// The canonical pointer-chasing list-sum loop: one speculated live-in (the
/// cursor), one sum reduction, loads only in the body.
fn list_sum_program() -> (Program, FuncId) {
    let mut program = Program::new();
    program.add_global("nodes", 128);
    let mut b = FunctionBuilder::new("list_sum");
    let head = b.param();
    let pre = b.new_block();
    let header = b.new_block();
    let body = b.new_block();
    let exit = b.new_block();
    let c = b.copy(head);
    let sum = b.copy(0i64);
    b.br(pre);
    b.switch_to(pre);
    b.br(header);
    b.switch_to(header);
    let done = b.binop(BinOp::Eq, c, 0i64);
    b.cond_br(done, exit, body);
    b.switch_to(body);
    let w = b.load(c, 0);
    let s = b.binop(BinOp::Add, sum, w);
    b.copy_into(sum, s);
    let nx = b.load(c, 1);
    b.copy_into(c, nx);
    b.br(header);
    b.switch_to(exit);
    b.ret(Some(Operand::Reg(sum)));
    let f = program.add_func(b.finish());
    (program, f)
}

/// Transforms the fixture under `policy`, returning the (lint-clean)
/// transformed program and the transform's record of the loop.
fn transformed(policy: ConflictPolicy) -> (Program, SpiceParallelLoop) {
    let (mut program, f) = list_sum_program();
    let analysis = derive_loop_spec(&program, f, None).unwrap();
    let spice = SpiceTransform::new(SpiceOptions {
        conflict_policy: policy,
        ..SpiceOptions::with_threads_and_estimate(3, 16)
    })
    .apply(&mut program, &analysis)
    .expect("fixture transforms cleanly");
    assert!(
        lint_spice(&program, &spice).is_ok(),
        "fixture must start lint-clean"
    );
    (program, spice)
}

fn lint_errors(program: &Program, spice: &SpiceParallelLoop) -> Vec<LintError> {
    lint_spice(program, spice).expect_err("corruption must be caught")
}

/// Finds `(block, ip)` of the first instruction of `func` matching `pred`.
fn find_inst(program: &Program, func: FuncId, pred: impl Fn(&Inst) -> bool) -> (BlockId, usize) {
    let f = program.func(func);
    for b in f.block_ids() {
        for (ip, inst) in f.block(b).insts.iter().enumerate() {
            if pred(inst) {
                return (b, ip);
            }
        }
    }
    panic!("fixture is missing the expected instruction");
}

// ---------------------------------------------------------------------------
// The protocol contract.
// ---------------------------------------------------------------------------

/// Whether `errs` holds a contract error at `block` of `func` for worker
/// `core`.
fn breaks_contract(
    errs: &[LintError],
    program: &Program,
    func: FuncId,
    core: usize,
    block: Option<BlockId>,
) -> bool {
    let name = &program.func(func).name;
    errs.iter().any(|e| {
        matches!(e, LintError::Protocol { func: f, core: c, block: b, .. }
            if f == name && *c == core as i64 && block.is_none_or(|want| *b == want))
    })
}

/// The serial paths of a detecting loop: the throttled invocation, the
/// merge chain's tail and the resume after a violation.
fn serial(spice: &SpiceParallelLoop) -> SerialShape {
    spice
        .shape
        .serial
        .expect("a detecting loop runs the loop alone on its serial paths")
}

/// Named corruption: a double-send on a worker's invariant channel — the
/// worker would consume the extra value as the first word of a later
/// invocation's release message.
#[test]
fn double_send_on_invariant_channel_breaks_the_contract() {
    let (mut program, spice) = transformed(ConflictPolicy::Detect);
    let w = &spice.workers[0];
    program
        .func_mut(spice.main)
        .block_mut(spice.shape.dispatch)
        .insts
        .push(Inst::Send {
            chan: Operand::Imm(w.channels.invariant),
            value: Operand::Imm(0),
        });
    let errs = lint_errors(&program, &spice);
    let dispatch = Some(spice.shape.dispatch);
    assert!(
        breaks_contract(&errs, &program, spice.main, w.core, dispatch),
        "got {errs:?}"
    );
}

/// The instrumented loop's one latch: the block whose terminator is the
/// latch test, `condbr _, check, header`.
fn main_latch(program: &Program, spice: &SpiceParallelLoop) -> BlockId {
    let main = program.func(spice.main);
    let (check, header) = (spice.shape.check, spice.shape.header);
    let latches: Vec<BlockId> = main
        .block_ids()
        .into_iter()
        .filter(|&b| {
            matches!(main.block(b).terminator,
                Terminator::CondBr { then_bb, else_bb, .. } if then_bb == check && else_bb == header)
        })
        .collect();
    assert_eq!(latches.len(), 1, "the fixture has one back edge");
    latches[0]
}

/// An invariant send smuggled outside the dispatch block, into the latch
/// every iteration runs, would run on a different schedule than the
/// worker's matching receive.
#[test]
fn invariant_send_outside_dispatch_breaks_the_contract() {
    let (mut program, spice) = transformed(ConflictPolicy::Detect);
    let w = &spice.workers[0];
    let latch = main_latch(&program, &spice);
    program
        .func_mut(spice.main)
        .block_mut(latch)
        .insts
        .push(Inst::Send {
            chan: Operand::Imm(w.channels.invariant),
            value: Operand::Imm(0),
        });
    let errs = lint_errors(&program, &spice);
    assert!(
        breaks_contract(&errs, &program, spice.main, w.core, Some(latch)),
        "got {errs:?}"
    );
}

/// Rewiring `finish` back to `dispatch` sends a second release after the
/// merge chain without moving a single instruction.
#[test]
fn dispatch_inside_cycle_breaks_the_contract() {
    let (mut program, spice) = transformed(ConflictPolicy::Detect);
    let dispatch = spice.shape.dispatch;
    program
        .func_mut(spice.main)
        .block_mut(spice.shape.finish)
        .terminator = Terminator::Br(dispatch);
    let errs = lint_errors(&program, &spice);
    for w in &spice.workers {
        assert!(
            breaks_contract(&errs, &program, spice.main, w.core, Some(dispatch)),
            "core {}: got {errs:?}",
            w.core
        );
    }
}

/// One worker touching another worker's channel breaks pairwise channel
/// ownership.
#[test]
fn cross_worker_channel_op_fires_foreign_channel_op() {
    let (mut program, spice) = transformed(ConflictPolicy::Detect);
    let w0 = &spice.workers[0];
    let w1 = &spice.workers[1];
    assert_ne!(w0.func, w1.func);
    let entry = program.func(w1.func).entry;
    program
        .func_mut(w1.func)
        .block_mut(entry)
        .insts
        .push(Inst::Send {
            chan: Operand::Imm(w0.channels.status),
            value: Operand::Imm(0),
        });
    let errs = lint_errors(&program, &spice);
    assert!(
        errs.iter().any(|e| matches!(
            e,
            LintError::ForeignChannelOp { chan, .. } if *chan == w0.channels.status
        )),
        "got {errs:?}"
    );
}

/// Replaces the merge chain's `spec.check` of worker `core` with a `nop`,
/// returning it.
fn delete_spec_check(program: &mut Program, spice: &SpiceParallelLoop, core: usize) -> Inst {
    let (b, ip) = find_inst(
        program,
        spice.main,
        |i| matches!(i, Inst::SpecCheck { core: Operand::Imm(c), .. } if *c == core as i64),
    );
    std::mem::replace(
        &mut program.func_mut(spice.main).block_mut(b).insts[ip],
        Inst::Nop,
    )
}

/// Named corruption: deleting a worker's `spec.check` — its chunk would
/// commit without ever consulting the conflict detector.
#[test]
fn deleted_spec_check_breaks_the_contract() {
    let (mut program, spice) = transformed(ConflictPolicy::Detect);
    let w = &spice.workers[0];
    delete_spec_check(&mut program, &spice, w.core);
    let errs = lint_errors(&program, &spice);
    assert!(
        breaks_contract(&errs, &program, spice.main, w.core, None),
        "got {errs:?}"
    );
}

#[test]
fn duplicated_spec_check_breaks_the_contract() {
    let (mut program, spice) = transformed(ConflictPolicy::Detect);
    let w = &spice.workers[0];
    let (b, ip) = find_inst(
        &program,
        spice.main,
        |i| matches!(i, Inst::SpecCheck { core: Operand::Imm(c), .. } if *c == w.core as i64),
    );
    let copy = program.func(spice.main).block(b).insts[ip].clone();
    program.func_mut(spice.main).block_mut(b).insts.push(copy);
    let errs = lint_errors(&program, &spice);
    assert!(
        breaks_contract(&errs, &program, spice.main, w.core, None),
        "got {errs:?}"
    );
}

/// Under `AssumeIndependent` no checks are emitted, so any `spec.check` is a
/// policy violation — the transform and the machine would disagree about
/// whether read/write sets exist.
#[test]
fn spec_check_under_assume_independent_breaks_the_contract() {
    let (mut program, spice) = transformed(ConflictPolicy::AssumeIndependent);
    assert!(!spice.conflict_detection);
    let w = &spice.workers[0];
    let main = program.func_mut(spice.main);
    let dst = main.fresh_reg();
    main.block_mut(spice.shape.chain).insts.insert(
        0,
        Inst::SpecCheck {
            dst,
            core: Operand::Imm(w.core as i64),
        },
    );
    let errs = lint_errors(&program, &spice);
    let chain = Some(spice.shape.chain);
    assert!(
        breaks_contract(&errs, &program, spice.main, w.core, chain),
        "got {errs:?}"
    );
}

/// A protocol instruction no word holds: a `spec.check` naming a core no
/// worker runs on, and a `spec.begin` in the main thread.
#[test]
fn an_instruction_no_word_holds_breaks_the_contract() {
    let (mut program, spice) = transformed(ConflictPolicy::Detect);
    let tail = serial(&spice).tail;
    let main = program.func_mut(spice.main);
    let dst = main.fresh_reg();
    let insts = &mut main.block_mut(tail).insts;
    insts.insert(
        0,
        Inst::SpecCheck {
            dst,
            core: Operand::Imm(99),
        },
    );
    insts.insert(1, Inst::SpecBegin);
    let errs = lint_errors(&program, &spice);
    let name = &program.func(spice.main).name;
    for (core, ip) in [(99, 0), (-1, 1)] {
        assert!(
            errs.iter().any(
                |e| matches!(e, LintError::Protocol { func, core: c, block, ip: i, .. }
                if func == name && *c == core && *block == tail && *i == ip)
            ),
            "core {core}: got {errs:?}"
        );
    }
}

/// Moving a `spec.check` into the resume block leaves commit paths that
/// never pass through it.
#[test]
fn spec_check_moved_off_commit_path_breaks_the_contract() {
    let (mut program, spice) = transformed(ConflictPolicy::Detect);
    let w = &spice.workers[0];
    let check = delete_spec_check(&mut program, &spice, w.core);
    let resume = serial(&spice).resume;
    let main = program.func_mut(spice.main);
    main.block_mut(resume).insts.push(check);
    let errs = lint_errors(&program, &spice);
    assert!(
        breaks_contract(&errs, &program, spice.main, w.core, Some(resume)),
        "got {errs:?}"
    );
}

/// A throttled invocation that still waits for worker 1's status would wait
/// forever: the worker was released with no task and sends nothing.
#[test]
fn throttled_path_receiving_a_status_breaks_the_contract() {
    let (mut program, spice) = transformed(ConflictPolicy::Detect);
    let w = &spice.workers[0];
    let throttle = serial(&spice).throttle;
    let main = program.func_mut(spice.main);
    let dst = main.fresh_reg();
    main.block_mut(throttle).insts.push(Inst::Recv {
        dst,
        chan: Operand::Imm(w.channels.status),
    });
    let errs = lint_errors(&program, &spice);
    assert!(
        breaks_contract(&errs, &program, spice.main, w.core, Some(throttle)),
        "got {errs:?}"
    );
}

/// A throttled invocation that releases worker 1 with a task instead of
/// resteering it, then runs the loop past the merge chain: the worker's
/// chunk would be neither committed nor squashed.
#[test]
fn throttled_path_releasing_a_worker_breaks_the_contract() {
    let (mut program, spice) = transformed(ConflictPolicy::Detect);
    let w = &spice.workers[0];
    let throttle = serial(&spice).throttle;
    let release: Vec<Inst> = program
        .func(spice.main)
        .block(spice.shape.dispatch)
        .insts
        .iter()
        .filter(
            |i| matches!(i, Inst::Send { chan: Operand::Imm(c), .. } if *c == w.channels.invariant),
        )
        .cloned()
        .collect();
    assert!(!release.is_empty());
    let (b, ip) = find_inst(
        &program,
        spice.main,
        |i| matches!(i, Inst::Resteer { core: Operand::Imm(c), .. } if *c == w.core as i64),
    );
    assert_eq!(b, throttle, "the throttled path resteers first");
    program
        .func_mut(spice.main)
        .block_mut(throttle)
        .insts
        .splice(ip..=ip, release);
    let errs = lint_errors(&program, &spice);
    assert!(
        breaks_contract(&errs, &program, spice.main, w.core, Some(throttle)),
        "got {errs:?}"
    );
}

/// The worker's exit block: the one that runs `spec.commit`.
fn worker_exit_block(program: &Program, func: FuncId) -> BlockId {
    find_inst(program, func, |i| matches!(i, Inst::SpecCommit)).0
}

/// The worker's `send status` moved from its exit block into its hit block:
/// a chunk that runs to the loop exit never reports, and the merge chain
/// would wait for it forever. The per-function channel counts of earlier
/// versions of the lint accepted this program: it still holds one status
/// send.
#[test]
fn status_send_moved_into_the_hit_block_breaks_the_contract() {
    let (mut program, spice) = transformed(ConflictPolicy::Detect);
    // Worker 1 of three threads is not the last, so it has a hit block.
    let w = &spice.workers[0];
    let (exit, ip) = find_inst(
        &program,
        w.func,
        |i| matches!(i, Inst::Send { chan: Operand::Imm(c), .. } if *c == w.channels.status),
    );
    let worker = program.func_mut(w.func);
    let send = worker.block_mut(exit).insts.remove(ip);
    let hit = worker
        .block_ids()
        .into_iter()
        .find(|&b| worker.block(b).label.as_deref() == Some("spice.hit"))
        .expect("a worker that is not the last has a hit block");
    worker.block_mut(hit).insts.push(send);
    let errs = lint_errors(&program, &spice);
    assert!(
        breaks_contract(&errs, &program, w.func, w.core, Some(exit)),
        "got {errs:?}"
    );
}

/// The worker's `spec.commit` moved after its live-out sends: the main
/// thread's last live-out receive would no longer order the commit before
/// the next worker's `spec.check`. The per-function channel counts of
/// earlier versions of the lint accepted this program: no op count changes.
#[test]
fn commit_after_the_live_outs_breaks_the_contract() {
    let (mut program, spice) = transformed(ConflictPolicy::Detect);
    let w = &spice.workers[0];
    assert!(spice.liveout_width() > 0);
    let exit = worker_exit_block(&program, w.func);
    let insts = &mut program.func_mut(w.func).block_mut(exit).insts;
    let at = insts
        .iter()
        .position(|i| matches!(i, Inst::SpecCommit))
        .unwrap();
    let commit = insts.remove(at);
    insts.push(commit);
    let errs = lint_errors(&program, &spice);
    assert!(
        breaks_contract(&errs, &program, w.func, w.core, Some(exit)),
        "got {errs:?}"
    );
}

/// Probe 3: a transformed main whose entry block can return before the
/// workers' release, which they would wait for forever. The front end
/// refuses a kernel of that shape, so only a transform bug could emit it.
#[test]
fn an_early_return_that_skips_the_release_breaks_the_contract() {
    let (mut program, spice) = transformed(ConflictPolicy::Detect);
    let main = program.func_mut(spice.main);
    let (entry, guard) = (main.entry, main.params[0]);
    let early = main.add_block();
    main.block_mut(early).terminator = Terminator::Ret {
        value: Some(Operand::Imm(-1)),
    };
    let rest = main.add_block();
    let tail = std::mem::replace(
        &mut main.block_mut(entry).terminator,
        Terminator::CondBr {
            cond: Operand::Reg(guard),
            then_bb: early,
            else_bb: rest,
        },
    );
    main.block_mut(rest).terminator = tail;
    let errs = lint_errors(&program, &spice);
    for core in 1..3 {
        assert!(
            breaks_contract(&errs, &program, spice.main, core, Some(early)),
            "core {core}: got {errs:?}"
        );
    }
}

// ---------------------------------------------------------------------------
// Boundary shape lints.
// ---------------------------------------------------------------------------

#[test]
fn rewired_tail_terminator_fires_shape_edge() {
    let (mut program, spice) = transformed(ConflictPolicy::Detect);
    let tail = serial(&spice).tail;
    program.func_mut(spice.main).block_mut(tail).terminator = Terminator::Br(spice.shape.finish);
    let errs = lint_errors(&program, &spice);
    assert!(
        errs.iter()
            .any(|e| matches!(e, LintError::ShapeEdge { block, .. } if *block == tail)),
        "got {errs:?}"
    );
}

/// Rewires main's latch test to `condbr _, then, else` as `rewire` picks
/// them from the loop record and the latch, and returns the lint errors at
/// the latch.
fn rewired_latch_test(
    rewire: impl Fn(&SpiceParallelLoop, BlockId) -> (BlockId, BlockId),
) -> Vec<LintError> {
    let (mut program, spice) = transformed(ConflictPolicy::Detect);
    let latch = main_latch(&program, &spice);
    let (then_to, else_to) = rewire(&spice, latch);
    let term = &mut program.func_mut(spice.main).block_mut(latch).terminator;
    let Terminator::CondBr {
        then_bb, else_bb, ..
    } = term
    else {
        unreachable!("the latch test is a conditional branch");
    };
    (*then_bb, *else_bb) = (then_to, else_to);
    let errs = lint_errors(&program, &spice);
    errs.into_iter()
        .filter(|e| matches!(e, LintError::ShapeEdge { block, .. } if *block == latch))
        .collect()
}

/// A latch test whose else-edge skips the header runs the next iteration
/// from the middle of the body (here the latch itself).
#[test]
fn latch_test_skipping_the_header_fires_shape_edge() {
    let errs = rewired_latch_test(|spice, latch| (spice.shape.check, latch));
    assert_eq!(errs.len(), 1, "got {errs:?}");
}

/// A latch test whose then-edge skips detection memoizes past the boundary
/// hit: the main chunk would run on into the next worker's chunk.
#[test]
fn latch_test_skipping_detection_fires_shape_edge() {
    let errs = rewired_latch_test(|spice, _| (spice.shape.memo, spice.shape.header));
    assert_eq!(errs.len(), 1, "got {errs:?}");
}

/// A second edge into the resume block runs the rest of the loop alone
/// after a squash that never happened: at the boundary hit, every worker's
/// word still waits for its status, so the lean loop is entered with the
/// words unfinished.
#[test]
fn extra_resume_predecessor_breaks_the_contract() {
    let (mut program, spice) = transformed(ConflictPolicy::Detect);
    let hit = spice.shape.hit;
    let resume = serial(&spice).resume;
    program.func_mut(spice.main).block_mut(hit).terminator = Terminator::Br(resume);
    let errs = lint_errors(&program, &spice);
    for w in &spice.workers {
        assert!(
            breaks_contract(&errs, &program, spice.main, w.core, Some(resume)),
            "core {}: got {errs:?}",
            w.core
        );
    }
}

/// The resume wired into the instrumented loop: its exit would walk the
/// merge chain a second time, receiving a status no worker sends.
#[test]
fn resume_wired_into_the_instrumented_loop_breaks_the_contract() {
    let (mut program, spice) = transformed(ConflictPolicy::Detect);
    let resume = serial(&spice).resume;
    program.func_mut(spice.main).block_mut(resume).terminator = Terminator::Br(spice.shape.check);
    let errs = lint_errors(&program, &spice);
    for w in &spice.workers {
        assert!(
            breaks_contract(&errs, &program, spice.main, w.core, None),
            "core {}: got {errs:?}",
            w.core
        );
    }
}

#[test]
fn recovery_block_without_abort_breaks_the_contract() {
    let (mut program, spice) = transformed(ConflictPolicy::Detect);
    let w = &spice.workers[0];
    let (b, ip) = find_inst(&program, w.func, |i| matches!(i, Inst::SpecAbort));
    assert_eq!(b, w.recovery_block);
    program.func_mut(w.func).block_mut(b).insts[ip] = Inst::Nop;
    let errs = lint_errors(&program, &spice);
    assert!(
        breaks_contract(&errs, &program, w.func, w.core, Some(w.recovery_block)),
        "got {errs:?}"
    );
}

/// The recovery block's `ret` is the only thing that ends a squashed
/// worker's thread; branching on into the exit block would commit the
/// squashed chunk.
#[test]
fn recovery_block_without_return_breaks_the_contract() {
    let (mut program, spice) = transformed(ConflictPolicy::Detect);
    let w = &spice.workers[0];
    let exit = worker_exit_block(&program, w.func);
    program
        .func_mut(w.func)
        .block_mut(w.recovery_block)
        .terminator = Terminator::Br(exit);
    let errs = lint_errors(&program, &spice);
    assert!(
        breaks_contract(&errs, &program, w.func, w.core, Some(w.recovery_block)),
        "got {errs:?}"
    );
}

/// Recovery code is entered only by the remote resteer: a worker that falls
/// into it would abort a chunk nobody squashed.
#[test]
fn branch_into_recovery_block_fires_recovery_shape() {
    let (mut program, spice) = transformed(ConflictPolicy::Detect);
    let w = &spice.workers[0];
    let exit = worker_exit_block(&program, w.func);
    program.func_mut(w.func).block_mut(exit).terminator = Terminator::Br(w.recovery_block);
    let errs = lint_errors(&program, &spice);
    assert!(
        errs.iter().any(|e| matches!(
            e,
            LintError::RecoveryShape { block, .. } if *block == w.recovery_block
        )),
        "got {errs:?}"
    );
}

/// A resteer pointed anywhere but the worker's recovery block would strand a
/// squashed thread in the middle of a stale chunk.
#[test]
fn retargeted_resteer_fires_resteer_target() {
    let (mut program, spice) = transformed(ConflictPolicy::Detect);
    let w0 = &spice.workers[0];
    let (b, ip) = find_inst(
        &program,
        spice.main,
        |i| matches!(i, Inst::Resteer { core: Operand::Imm(c), .. } if *c == w0.core as i64),
    );
    if let Inst::Resteer { target, .. } = &mut program.func_mut(spice.main).block_mut(b).insts[ip] {
        *target = BlockId(0);
    }
    let errs = lint_errors(&program, &spice);
    assert!(
        errs.iter().any(|e| matches!(
            e,
            LintError::ResteerTarget { core, target, .. }
                if *core == w0.core as i64 && *target == BlockId(0)
        )),
        "got {errs:?}"
    );
}

// ---------------------------------------------------------------------------
// Protocol metadata.
// ---------------------------------------------------------------------------

/// Three inconsistent records — colliding worker cores, two workers sharing
/// a channel, a worker on the main thread's core — each caught by the
/// program-free check and by the full stack.
#[test]
fn colliding_worker_cores_fire_protocol_metadata() {
    let (program, spice) = transformed(ConflictPolicy::Detect);
    let mut shared_core = spice.clone();
    shared_core.workers[1].core = shared_core.workers[0].core;
    let mut shared_channel = spice.clone();
    shared_channel.workers[1].channels.liveout = shared_channel.workers[0].channels.liveout;
    let mut main_core = spice.clone();
    main_core.workers[0].core = 0;
    for (what, bad) in [
        ("worker cores collide", shared_core),
        ("channel ids collide", shared_channel),
        ("core 0", main_core),
    ] {
        let is_metadata = |e: &LintError| matches!(e, LintError::ProtocolMetadata { detail } if detail.contains(what));
        let errs = check_protocol_metadata(&bad).expect_err(what);
        assert!(errs.iter().any(is_metadata), "{what}: got {errs:?}");
        let errs = lint_errors(&program, &bad);
        assert!(errs.iter().any(is_metadata), "{what}: got {errs:?}");
    }
}

// ---------------------------------------------------------------------------
// Verifier + decode corruptions (the structural layer under the lints).
// ---------------------------------------------------------------------------

/// Named corruption: a dangling branch target spliced into the merge chain.
/// Caught twice below the lints: by the verifier, and by typed decode
/// errors instead of a panic.
#[test]
fn dangling_target_in_merge_chain_is_caught_by_verify_and_decode() {
    let (mut program, spice) = transformed(ConflictPolicy::Detect);
    let chain = spice.shape.chain;
    let missing = BlockId(9999);
    program.func_mut(spice.main).block_mut(chain).terminator = Terminator::Br(missing);

    let errs = verify_program(&program).expect_err("verifier must catch it");
    let dangling = errs
        .iter()
        .find(|e| {
            matches!(
                e,
                VerifyError::DanglingBlockTarget { block, target, .. }
                    if *block == chain && *target == missing
            )
        })
        .expect("expected a DanglingBlockTarget error");
    let rendered = dangling.render(&program);
    assert!(rendered.contains("error[verify]"), "got: {rendered}");
    assert!(rendered.contains(&format!("{chain}")), "got: {rendered}");

    let decode_err = DecodedProgram::try_new(&program).expect_err("decode must fail typed");
    assert_eq!(decode_err.func_id, spice.main);
    assert_eq!(decode_err.block, chain);
}

/// Named corruption: a use of a register no path defines, injected across
/// the chunk boundary (the merge chain).
#[test]
fn use_before_def_across_boundary_is_caught_by_verify() {
    let (mut program, spice) = transformed(ConflictPolicy::Detect);
    let main = program.func_mut(spice.main);
    let undef = main.fresh_reg();
    main.block_mut(spice.shape.chain).insts.insert(
        0,
        Inst::Store {
            src: Operand::Reg(undef),
            addr: Operand::Imm(0),
            offset: 0,
        },
    );
    let errs = verify_program(&program).expect_err("verifier must catch it");
    let ube = errs
        .iter()
        .find(|e| matches!(e, VerifyError::UseBeforeDef { reg, .. } if *reg == undef))
        .expect("expected a UseBeforeDef error");
    let rendered = ube.render(&program);
    assert!(rendered.contains("error[verify]"), "got: {rendered}");
}

/// Lint diagnostics point at the offending function/block/instruction.
#[test]
fn lint_render_quotes_the_offending_block() {
    let (mut program, spice) = transformed(ConflictPolicy::Detect);
    delete_spec_check(&mut program, &spice, spice.workers[0].core);
    let errs = lint_errors(&program, &spice);
    let missing = errs
        .iter()
        .find(|e| matches!(e, LintError::Protocol { .. }))
        .unwrap();
    let rendered = missing.render(&program);
    assert!(rendered.contains("error[lint]"), "got: {rendered}");
    // A contract error names its block and instruction: the listing and
    // the instruction marker.
    assert!(rendered.contains("-->"), "got: {rendered}");
    assert!(rendered.contains("--->"), "got: {rendered}");
    let foreign_program = {
        let (mut p, proto) = transformed(ConflictPolicy::Detect);
        let w0 = &proto.workers[0];
        let w1 = &proto.workers[1];
        let entry = p.func(w1.func).entry;
        p.func_mut(w1.func).block_mut(entry).insts.push(Inst::Send {
            chan: Operand::Imm(w0.channels.status),
            value: Operand::Imm(0),
        });
        let errs = lint_errors(&p, &proto);
        let foreign = errs
            .iter()
            .find(|e| matches!(e, LintError::ForeignChannelOp { .. }))
            .unwrap();
        foreign.render(&p)
    };
    assert!(
        foreign_program.contains("error[lint]"),
        "got: {foreign_program}"
    );
    assert!(foreign_program.contains("-->"), "got: {foreign_program}");
    assert!(foreign_program.contains("--->"), "got: {foreign_program}");
}

/// The transform's own gate reports lint failures through a dedicated error
/// variant whose message names every error: where the contract broke and
/// what it expected there.
#[test]
fn transform_lint_error_displays_as_lint_failure() {
    let err = TransformError::Lint(vec![
        LintError::ProtocolMetadata {
            detail: "worker cores collide".to_string(),
        },
        LintError::Protocol {
            func: "list_sum".to_string(),
            core: 2,
            block: BlockId(7),
            ip: 1,
            expected: "`send inv`".to_string(),
            found: "ret".to_string(),
        },
    ]);
    let msg = err.to_string();
    assert!(msg.contains("speculation-safety lints"), "got: {msg}");
    assert!(msg.contains("worker cores collide"), "got: {msg}");
    for part in ["@list_sum", "bb7", "`send inv`"] {
        assert!(msg.contains(part), "{part} missing from: {msg}");
    }
}
