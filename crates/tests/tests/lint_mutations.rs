//! Mutation tests for the speculation-safety lint stack.
//!
//! Each test takes a *valid* Spice-transformed program, applies one targeted
//! corruption — the kind a buggy transform change would introduce — and
//! asserts that the *specific* lint (or verifier error) fires. Together they
//! prove every lint in the catalog has at least one triggering input, so a
//! regression that silently disables a lint is caught here rather than by a
//! production miscompile.

use spice_core::analysis::derive_loop_spec;
use spice_core::predictor::PredictorOptions;
use spice_core::transform::{SpiceOptions, SpiceParallelLoop, SpiceTransform};
use spice_ir::builder::FunctionBuilder;
use spice_ir::exec::ConflictPolicy;
use spice_ir::lint::{check_protocol_metadata, lint_spice, LintError, SpiceProtocol};
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
/// transformed program, the loop description, and its protocol.
fn transformed(policy: ConflictPolicy) -> (Program, SpiceParallelLoop, SpiceProtocol) {
    let (mut program, f) = list_sum_program();
    let analysis = derive_loop_spec(&program, f, None).unwrap();
    let spice = SpiceTransform::new(SpiceOptions {
        threads: 3,
        predictor: PredictorOptions {
            initial_work_estimate: Some(16),
            ..PredictorOptions::default()
        },
        conflict_policy: policy,
    })
    .apply(&mut program, &analysis)
    .expect("fixture transforms cleanly");
    let protocol = spice.protocol();
    assert!(
        lint_spice(&program, &protocol).is_ok(),
        "fixture must start lint-clean"
    );
    (program, spice, protocol)
}

fn lint_errors(program: &Program, protocol: &SpiceProtocol) -> Vec<LintError> {
    lint_spice(program, protocol).expect_err("corruption must be caught")
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
// Channel-protocol lints.
// ---------------------------------------------------------------------------

/// Named corruption: a double-send on a worker's invariant channel — the
/// worker would consume the second value as a later invocation's token.
#[test]
fn double_send_on_invariant_channel_fires_channel_count() {
    let (mut program, _, protocol) = transformed(ConflictPolicy::Detect);
    let w = protocol.workers[0];
    program
        .func_mut(protocol.main)
        .block_mut(protocol.shape.dispatch)
        .insts
        .push(Inst::Send {
            chan: Operand::Imm(w.invariant),
            value: Operand::Imm(0),
        });
    let errs = lint_errors(&program, &protocol);
    assert!(
        errs.iter().any(|e| matches!(
            e,
            LintError::ChannelCount { chan, role: "new_invocation send", found, .. }
                if *chan == w.invariant && *found == 2 + protocol.invariant_payload
        )),
        "got {errs:?}"
    );
}

/// An invariant send smuggled outside the dispatch block would run on a
/// different schedule than the worker's matching receive.
#[test]
fn invariant_send_outside_dispatch_fires_outside_block() {
    let (mut program, _, protocol) = transformed(ConflictPolicy::Detect);
    let w = protocol.workers[0];
    program
        .func_mut(protocol.main)
        .block_mut(protocol.shape.bump)
        .insts
        .push(Inst::Send {
            chan: Operand::Imm(w.invariant),
            value: Operand::Imm(0),
        });
    let errs = lint_errors(&program, &protocol);
    let bump = protocol.shape.bump;
    assert!(
        errs.iter().any(|e| matches!(
            e,
            LintError::ChannelOutsideBlock { chan, block, .. }
                if *chan == w.invariant && *block == bump
        )),
        "got {errs:?}"
    );
}

/// Rewiring `finish` back to `dispatch` puts the once-per-invocation sends
/// inside a CFG cycle without moving a single instruction.
#[test]
fn dispatch_inside_cycle_fires_channel_in_cycle() {
    let (mut program, _, protocol) = transformed(ConflictPolicy::Detect);
    let dispatch = protocol.shape.dispatch;
    program
        .func_mut(protocol.main)
        .block_mut(protocol.shape.finish)
        .terminator = Terminator::Br(dispatch);
    let errs = lint_errors(&program, &protocol);
    assert!(
        errs.iter().any(|e| matches!(
            e,
            LintError::ChannelInCycle { block, .. } if *block == dispatch
        )),
        "got {errs:?}"
    );
}

/// One worker touching another worker's channel breaks pairwise channel
/// ownership.
#[test]
fn cross_worker_channel_op_fires_foreign_channel_op() {
    let (mut program, _, protocol) = transformed(ConflictPolicy::Detect);
    let w0 = protocol.workers[0];
    let w1 = protocol.workers[1];
    assert_ne!(w0.func, w1.func);
    let entry = program.func(w1.func).entry;
    program
        .func_mut(w1.func)
        .block_mut(entry)
        .insts
        .push(Inst::Send {
            chan: Operand::Imm(w0.status),
            value: Operand::Imm(0),
        });
    let errs = lint_errors(&program, &protocol);
    assert!(
        errs.iter().any(|e| matches!(
            e,
            LintError::ForeignChannelOp { chan, .. } if *chan == w0.status
        )),
        "got {errs:?}"
    );
}

// ---------------------------------------------------------------------------
// spec.check placement lints.
// ---------------------------------------------------------------------------

/// Named corruption: deleting a worker's `spec.check` — its chunk would
/// commit without ever consulting the conflict detector.
#[test]
fn deleted_spec_check_fires_missing_spec_check() {
    let (mut program, _, protocol) = transformed(ConflictPolicy::Detect);
    let w = protocol.workers[0];
    let (b, ip) = find_inst(
        &program,
        protocol.main,
        |i| matches!(i, Inst::SpecCheck { core: Operand::Imm(c), .. } if *c == w.core),
    );
    program.func_mut(protocol.main).block_mut(b).insts[ip] = Inst::Nop;
    let errs = lint_errors(&program, &protocol);
    assert!(
        errs.iter()
            .any(|e| matches!(e, LintError::MissingSpecCheck { core } if *core == w.core)),
        "got {errs:?}"
    );
}

#[test]
fn duplicated_spec_check_fires_duplicate_spec_check() {
    let (mut program, _, protocol) = transformed(ConflictPolicy::Detect);
    let w = protocol.workers[0];
    let (b, ip) = find_inst(
        &program,
        protocol.main,
        |i| matches!(i, Inst::SpecCheck { core: Operand::Imm(c), .. } if *c == w.core),
    );
    let copy = program.func(protocol.main).block(b).insts[ip].clone();
    program
        .func_mut(protocol.main)
        .block_mut(b)
        .insts
        .push(copy);
    let errs = lint_errors(&program, &protocol);
    assert!(
        errs.iter().any(|e| matches!(
            e,
            LintError::DuplicateSpecCheck { core, found: 2 } if *core == w.core
        )),
        "got {errs:?}"
    );
}

/// Under `AssumeIndependent` no checks are emitted, so any `spec.check` is a
/// policy violation — the transform and the machine would disagree about
/// whether read/write sets exist.
#[test]
fn spec_check_under_assume_independent_is_unexpected() {
    let (mut program, _, protocol) = transformed(ConflictPolicy::AssumeIndependent);
    assert!(!protocol.detect);
    let w = protocol.workers[0];
    let main = program.func_mut(protocol.main);
    let dst = main.fresh_reg();
    main.block_mut(protocol.shape.tail).insts.insert(
        0,
        Inst::SpecCheck {
            dst,
            core: Operand::Imm(w.core),
        },
    );
    let errs = lint_errors(&program, &protocol);
    assert!(
        errs.iter()
            .any(|e| matches!(e, LintError::UnexpectedSpecCheck { .. })),
        "got {errs:?}"
    );
}

/// Moving a `spec.check` into the resume block leaves commit paths that
/// never pass through it.
#[test]
fn spec_check_moved_off_commit_path_fires_dominance_lint() {
    let (mut program, _, protocol) = transformed(ConflictPolicy::Detect);
    let w = protocol.workers[0];
    let (b, ip) = find_inst(
        &program,
        protocol.main,
        |i| matches!(i, Inst::SpecCheck { core: Operand::Imm(c), .. } if *c == w.core),
    );
    let main = program.func_mut(protocol.main);
    let check = std::mem::replace(&mut main.block_mut(b).insts[ip], Inst::Nop);
    main.block_mut(protocol.shape.resume).insts.push(check);
    let errs = lint_errors(&program, &protocol);
    assert!(
        errs.iter().any(|e| matches!(
            e,
            LintError::SpecCheckNotDominatingCommit { core, .. } if *core == w.core
        )),
        "got {errs:?}"
    );
}

// ---------------------------------------------------------------------------
// Conflict-exemption coverage.
// ---------------------------------------------------------------------------

/// Original program code reading the predictor arrays would be invisibly
/// exempt from conflict detection — exactly the hole the coverage lint
/// closes.
#[test]
fn program_code_touching_predictor_range_fires_exemption_lint() {
    let (mut program, _, protocol) = transformed(ConflictPolicy::Detect);
    let (lo, _) = protocol.exempt_range;
    let main = program.func_mut(protocol.main);
    let entry = main.entry;
    assert!(entry.index() < protocol.main_program_blocks);
    let dst = main.fresh_reg();
    main.block_mut(entry).insts.push(Inst::Load {
        dst,
        addr: Operand::Imm(lo),
        offset: 0,
    });
    let errs = lint_errors(&program, &protocol);
    assert!(
        errs.iter().any(|e| matches!(
            e,
            LintError::ExemptRangeAccess { addr, .. } if *addr == lo
        )),
        "got {errs:?}"
    );
}

// ---------------------------------------------------------------------------
// Boundary/resume shape lints.
// ---------------------------------------------------------------------------

#[test]
fn rewired_tail_terminator_fires_shape_edge() {
    let (mut program, _, protocol) = transformed(ConflictPolicy::Detect);
    let tail = protocol.shape.tail;
    program.func_mut(protocol.main).block_mut(tail).terminator =
        Terminator::Br(protocol.shape.finish);
    let errs = lint_errors(&program, &protocol);
    assert!(
        errs.iter()
            .any(|e| matches!(e, LintError::ShapeEdge { block, .. } if *block == tail)),
        "got {errs:?}"
    );
}

/// A second edge into the resume block breaks `need_resume`/`resumed`
/// nesting: the loop could "resume" from a squash that never happened.
#[test]
fn extra_resume_predecessor_fires_resume_entry() {
    let (mut program, _, protocol) = transformed(ConflictPolicy::Detect);
    let hit = protocol.shape.hit;
    program.func_mut(protocol.main).block_mut(hit).terminator =
        Terminator::Br(protocol.shape.resume);
    let errs = lint_errors(&program, &protocol);
    assert!(
        errs.iter()
            .any(|e| matches!(e, LintError::ResumeEntry { pred, .. } if *pred == hit)),
        "got {errs:?}"
    );
}

#[test]
fn recovery_block_without_abort_fires_recovery_shape() {
    let (mut program, _, protocol) = transformed(ConflictPolicy::Detect);
    let w = protocol.workers[0];
    let (b, ip) = find_inst(&program, w.func, |i| matches!(i, Inst::SpecAbort));
    assert_eq!(b, w.recovery_block);
    program.func_mut(w.func).block_mut(b).insts[ip] = Inst::Nop;
    let errs = lint_errors(&program, &protocol);
    assert!(
        errs.iter().any(|e| matches!(
            e,
            LintError::RecoveryShape { block, detail, .. }
                if *block == w.recovery_block && detail.contains("no spec.abort")
        )),
        "got {errs:?}"
    );
}

/// A resteer pointed anywhere but the worker's recovery block would strand a
/// squashed thread in the middle of a stale chunk.
#[test]
fn retargeted_resteer_fires_resteer_target() {
    let (mut program, _, protocol) = transformed(ConflictPolicy::Detect);
    let w0 = protocol.workers[0];
    let (b, ip) = find_inst(
        &program,
        protocol.main,
        |i| matches!(i, Inst::Resteer { core: Operand::Imm(c), .. } if *c == w0.core),
    );
    if let Inst::Resteer { target, .. } =
        &mut program.func_mut(protocol.main).block_mut(b).insts[ip]
    {
        *target = BlockId(0);
    }
    let errs = lint_errors(&program, &protocol);
    assert!(
        errs.iter().any(|e| matches!(
            e,
            LintError::ResteerTarget { core, target, .. }
                if *core == w0.core && *target == BlockId(0)
        )),
        "got {errs:?}"
    );
}

// ---------------------------------------------------------------------------
// Protocol metadata.
// ---------------------------------------------------------------------------

#[test]
fn colliding_worker_cores_fire_protocol_metadata() {
    let (program, _, mut protocol) = transformed(ConflictPolicy::Detect);
    protocol.workers[1].core = protocol.workers[0].core;
    assert!(check_protocol_metadata(&protocol).is_err());
    let errs = lint_errors(&program, &protocol);
    assert!(
        errs.iter()
            .any(|e| matches!(e, LintError::ProtocolMetadata { .. })),
        "got {errs:?}"
    );
}

// ---------------------------------------------------------------------------
// Verifier + decode corruptions (the structural layer under the lints).
// ---------------------------------------------------------------------------

/// Named corruption: a dangling branch target spliced into the merge chain.
/// Caught twice below the lints: by the verifier, and by typed decode
/// errors instead of a panic.
#[test]
fn dangling_target_in_merge_chain_is_caught_by_verify_and_decode() {
    let (mut program, _, protocol) = transformed(ConflictPolicy::Detect);
    let chain = protocol.shape.chain;
    let missing = BlockId(9999);
    program.func_mut(protocol.main).block_mut(chain).terminator = Terminator::Br(missing);

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
    assert_eq!(decode_err.func_id, protocol.main);
    assert_eq!(decode_err.block, chain);
}

/// Named corruption: a use of a register no path defines, injected across
/// the chunk boundary (the merge chain).
#[test]
fn use_before_def_across_boundary_is_caught_by_verify() {
    let (mut program, _, protocol) = transformed(ConflictPolicy::Detect);
    let main = program.func_mut(protocol.main);
    let undef = main.fresh_reg();
    main.block_mut(protocol.shape.merge).insts.insert(
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
    let (mut program, _, protocol) = transformed(ConflictPolicy::Detect);
    let w = protocol.workers[0];
    let (b, ip) = find_inst(
        &program,
        protocol.main,
        |i| matches!(i, Inst::SpecCheck { core: Operand::Imm(c), .. } if *c == w.core),
    );
    program.func_mut(protocol.main).block_mut(b).insts[ip] = Inst::Nop;
    let errs = lint_errors(&program, &protocol);
    let missing = errs
        .iter()
        .find(|e| matches!(e, LintError::MissingSpecCheck { .. }))
        .unwrap();
    let rendered = missing.render(&program);
    assert!(rendered.contains("error[lint]"), "got: {rendered}");
    // MissingSpecCheck has no block context; a block-bearing error renders
    // the listing with the instruction marker.
    let foreign_program = {
        let (mut p, _, proto) = transformed(ConflictPolicy::Detect);
        let w0 = proto.workers[0];
        let w1 = proto.workers[1];
        let entry = p.func(w1.func).entry;
        p.func_mut(w1.func).block_mut(entry).insts.push(Inst::Send {
            chan: Operand::Imm(w0.status),
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
/// variant with a readable message.
#[test]
fn transform_lint_error_displays_as_lint_failure() {
    let err =
        spice_core::transform::TransformError::Lint(vec![LintError::MissingSpecCheck { core: 1 }]);
    let msg = err.to_string();
    assert!(msg.contains("speculation-safety lints"), "got: {msg}");
}
