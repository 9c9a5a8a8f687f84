//! Cross-representation equivalence: the pre-decoded dispatch
//! ([`spice_ir::DecodedProgram`] + [`spice_ir::interp::ThreadState`]) must
//! retire the *identical* `ExecInfo` stream — classes, memory addresses,
//! branch directions, traps, step events, in the same order — as a
//! reference walker over the structured IR.
//!
//! The reference walker below re-implements the pre-decode execution
//! semantics directly over `Program`/`Block`/`Inst` (the shape
//! `ThreadState` had before the decode was introduced). Both executors are
//! stepped in lockstep over the full workload suite, every invocation, so a
//! decode bug that shifts a single branch target, operand slot or trap
//! surfaces as a first-divergence assertion with context.

use spice_ir::interp::{
    ExecInfo, FlatMemory, LocalSys, MemPort, StepEvent, SysPort, ThreadState, ThreadStatus,
};
use spice_ir::{
    BlockId, DecodedProgram, FuncId, Inst, InstClass, Operand, Program, Reg, Terminator, TrapKind,
};

/// Reference interpreter: walks the structured IR block-by-block with an
/// intra-block instruction cursor, mirroring the semantics the decoded
/// dispatch must preserve.
struct RefThread {
    func: FuncId,
    block: BlockId,
    ip: usize,
    regs: Vec<i64>,
    frames: Vec<RefFrame>,
    status: ThreadStatus,
}

struct RefFrame {
    func: FuncId,
    block: BlockId,
    ip: usize,
    regs: Vec<i64>,
    ret_dst: Option<Reg>,
}

const MAX_CALL_DEPTH: usize = 1024;

impl RefThread {
    fn new(program: &Program, func: FuncId, args: &[i64]) -> Self {
        let f = program.func(func);
        assert_eq!(args.len(), f.params.len());
        let mut regs = vec![0i64; f.reg_count()];
        for (p, a) in f.params.iter().zip(args) {
            regs[p.index()] = *a;
        }
        RefThread {
            func,
            block: f.entry,
            ip: 0,
            regs,
            frames: Vec::new(),
            status: ThreadStatus::Runnable,
        }
    }

    fn operand(&self, op: Operand) -> i64 {
        match op {
            Operand::Reg(r) => self.regs[r.index()],
            Operand::Imm(v) => v,
        }
    }

    fn trap(&mut self, kind: TrapKind) -> Result<StepEvent, TrapKind> {
        self.status = ThreadStatus::Trapped(kind);
        Err(kind)
    }

    fn step(
        &mut self,
        program: &Program,
        mem: &mut dyn MemPort,
        sys: &mut dyn SysPort,
    ) -> Result<StepEvent, TrapKind> {
        match self.status {
            ThreadStatus::Runnable => {}
            ThreadStatus::Finished => return Ok(StepEvent::Finished(None)),
            ThreadStatus::Trapped(k) => return Err(k),
        }
        let func = program.func(self.func);
        let block = func.block(self.block);
        let plain = ExecInfo::plain;
        let branch = ExecInfo::branch;
        if self.ip < block.insts.len() {
            let inst = &block.insts[self.ip];
            let class = inst.class();
            let event = match inst {
                Inst::Binary { op, dst, lhs, rhs } => {
                    let v = match op.eval(self.operand(*lhs), self.operand(*rhs)) {
                        Ok(v) => v,
                        Err(t) => return self.trap(t),
                    };
                    self.regs[dst.index()] = v;
                    StepEvent::Executed(plain(class))
                }
                Inst::Copy { dst, src } => {
                    self.regs[dst.index()] = self.operand(*src);
                    StepEvent::Executed(plain(class))
                }
                Inst::Select {
                    dst,
                    cond,
                    if_true,
                    if_false,
                } => {
                    let v = if self.operand(*cond) != 0 {
                        self.operand(*if_true)
                    } else {
                        self.operand(*if_false)
                    };
                    self.regs[dst.index()] = v;
                    StepEvent::Executed(plain(class))
                }
                Inst::Load { dst, addr, offset } => {
                    let a = self.operand(*addr) + offset;
                    let v = match mem.load(a) {
                        Ok(v) => v,
                        Err(t) => return self.trap(t),
                    };
                    self.regs[dst.index()] = v;
                    StepEvent::Executed(ExecInfo::mem(class, a))
                }
                Inst::Store { src, addr, offset } => {
                    let a = self.operand(*addr) + offset;
                    if let Err(t) = mem.store(a, self.operand(*src)) {
                        return self.trap(t);
                    }
                    StepEvent::Executed(ExecInfo::mem(class, a))
                }
                Inst::Call { dst, func, args } => {
                    if self.frames.len() >= MAX_CALL_DEPTH {
                        return self.trap(TrapKind::StackOverflow);
                    }
                    if func.index() >= program.funcs.len() {
                        return self.trap(TrapKind::UnknownFunction);
                    }
                    let callee = program.func(*func);
                    if callee.params.len() != args.len() {
                        return self.trap(TrapKind::UnknownFunction);
                    }
                    let mut new_regs = vec![0i64; callee.reg_count()];
                    for (p, a) in callee.params.iter().zip(args.iter()) {
                        new_regs[p.index()] = self.operand(*a);
                    }
                    self.frames.push(RefFrame {
                        func: self.func,
                        block: self.block,
                        ip: self.ip + 1,
                        regs: std::mem::replace(&mut self.regs, new_regs),
                        ret_dst: *dst,
                    });
                    self.func = *func;
                    self.block = callee.entry;
                    self.ip = 0;
                    return Ok(StepEvent::Executed(plain(InstClass::Branch)));
                }
                Inst::Send { chan, value } => {
                    sys.send(self.operand(*chan), self.operand(*value));
                    StepEvent::Executed(plain(class))
                }
                Inst::Recv { dst, chan } => match sys.try_recv(self.operand(*chan)) {
                    Some(v) => {
                        self.regs[dst.index()] = v;
                        StepEvent::Executed(plain(class))
                    }
                    None => return Ok(StepEvent::Blocked),
                },
                Inst::SpecBegin => {
                    sys.spec_begin();
                    StepEvent::Executed(plain(class))
                }
                Inst::SpecCommit => {
                    sys.spec_commit();
                    StepEvent::Executed(plain(class))
                }
                Inst::SpecAbort => {
                    sys.spec_abort();
                    StepEvent::Executed(plain(class))
                }
                Inst::SpecCheck { dst, core } => {
                    let verdict = sys.spec_conflict(self.operand(*core));
                    self.regs[dst.index()] = verdict;
                    StepEvent::Executed(plain(class))
                }
                Inst::Resteer { core, target } => {
                    sys.resteer(self.operand(*core), *target);
                    StepEvent::Executed(plain(class))
                }
                Inst::Nop => StepEvent::Executed(plain(class)),
            };
            self.ip += 1;
            Ok(event)
        } else {
            match block.terminator.clone() {
                Terminator::Br(t) => {
                    self.block = t;
                    self.ip = 0;
                    Ok(StepEvent::Executed(branch(true)))
                }
                Terminator::CondBr {
                    cond,
                    then_bb,
                    else_bb,
                } => {
                    let taken = self.operand(cond) != 0;
                    self.block = if taken { then_bb } else { else_bb };
                    self.ip = 0;
                    Ok(StepEvent::Executed(branch(taken)))
                }
                Terminator::Ret { value } => {
                    let v = value.map(|op| self.operand(op));
                    if let Some(frame) = self.frames.pop() {
                        self.func = frame.func;
                        self.block = frame.block;
                        self.ip = frame.ip;
                        self.regs = frame.regs;
                        if let (Some(dst), Some(v)) = (frame.ret_dst, v) {
                            self.regs[dst.index()] = v;
                        }
                        Ok(StepEvent::Executed(branch(true)))
                    } else {
                        self.status = ThreadStatus::Finished;
                        Ok(StepEvent::Finished(v))
                    }
                }
                Terminator::Unreachable => {
                    self.status = ThreadStatus::Trapped(TrapKind::UnsupportedIntrinsic);
                    Err(TrapKind::UnsupportedIntrinsic)
                }
            }
        }
    }
}

/// Steps the decoded and the reference executor in lockstep over one run of
/// `func`, asserting identical events, and returns the shared step count.
/// With `alu_run > 0` the decoded thread first retires up to that many
/// co-issuable ALU instructions in one [`ThreadState::retire_alu_run`] call
/// before each step, and the reference steps as many times: each of its
/// steps must be a plain `IntAlu`/`Other` event, the registers must agree
/// after the run, and a run that stops short must stop before an
/// instruction it could not take.
#[allow(clippy::too_many_arguments)]
fn lockstep_run(
    label: &str,
    program: &Program,
    decoded: &DecodedProgram,
    func: FuncId,
    args: &[i64],
    mem_a: &mut FlatMemory,
    mem_b: &mut FlatMemory,
    fuel: u64,
    alu_run: u64,
) -> u64 {
    let mut sys_a = LocalSys::new();
    let mut sys_b = LocalSys::new();
    let mut dec = ThreadState::new(decoded, func, args);
    let mut refr = RefThread::new(program, func, args);
    let co_issued = |e: &Result<StepEvent, TrapKind>| {
        [InstClass::IntAlu, InstClass::Other]
            .iter()
            .any(|&c| *e == Ok(StepEvent::Executed(ExecInfo::plain(c))))
    };
    let mut step = 0;
    while step < fuel {
        let mut stopped_short = false;
        if alu_run > 0 {
            let ran = dec.retire_alu_run(decoded, alu_run);
            for _ in 0..ran {
                let b = refr.step(program, mem_b, &mut sys_b);
                assert!(co_issued(&b), "{label}: run took {b:?} at step {step}");
                step += 1;
            }
            assert_eq!(dec.retired(), step, "{label}: retired after a run");
            assert_eq!(dec.current_block(), refr.block, "{label}: run cursor");
            for (r, v) in refr.regs.iter().enumerate() {
                assert_eq!(dec.reg(Reg(r as u32)), *v, "{label}: r{r} after a run");
            }
            stopped_short = ran < alu_run;
        }
        let a = dec.step(decoded, mem_a, &mut sys_a);
        let b = refr.step(program, mem_b, &mut sys_b);
        assert_eq!(a, b, "{label}: divergence at step {step}");
        assert!(
            !(stopped_short && co_issued(&a)),
            "{label}: a run stopped before step {step}, which it could take"
        );
        assert_eq!(
            dec.current_block(),
            refr.block,
            "{label}: cursor divergence at step {step}"
        );
        step += 1;
        match a {
            Ok(StepEvent::Finished(_)) | Err(_) => {
                assert_eq!(
                    mem_a.words(),
                    mem_b.words(),
                    "{label}: memory divergence at end"
                );
                return step;
            }
            Ok(StepEvent::Blocked) => panic!("{label}: single-threaded run blocked"),
            Ok(StepEvent::Executed(_)) => {}
        }
    }
    panic!("{label}: out of lockstep fuel");
}

/// Decoded and reference execution retire identical `ExecInfo` streams over
/// every workload of the full (small-configuration) suite, across every
/// invocation: one step at a time, and with co-issuable ALU runs of up to
/// 1, 3 and 6 instructions (6 is Table 1's issue width) retired in one call.
#[test]
fn decoded_execution_matches_reference_walker_on_full_suite() {
    for alu_run in [0, 1, 3, 6] {
        lockstep_suite(alu_run);
    }
}

fn lockstep_suite(alu_run: u64) {
    for (name, factory) in spice_workloads::all_workload_factories(true) {
        let mut wl = factory();
        let built = wl.build();
        let decoded = DecodedProgram::new(&built.program);
        for f in 0..decoded.func_count() {
            let pool = decoded.func(FuncId(f as u32)).constants();
            let distinct: std::collections::HashSet<_> = pool.iter().collect();
            assert_eq!(
                distinct.len(),
                pool.len(),
                "{name}: @f{f} pools a value twice"
            );
        }
        let mut mem_a = FlatMemory::for_program(&built.program, 1 << 20);
        let mut args = wl.init(&mut mem_a);
        let mut mem_b = mem_a.clone();
        let mut total_steps = 0u64;
        let mut inv = 0usize;
        loop {
            total_steps += lockstep_run(
                name,
                &built.program,
                &decoded,
                built.kernel,
                &args,
                &mut mem_a,
                &mut mem_b,
                200_000_000,
                alu_run,
            );
            match wl.next_invocation(&mut mem_a, inv) {
                Some(a) => {
                    // Drive the reference memory through the same mutation.
                    mem_b = mem_a.clone();
                    args = a;
                    inv += 1;
                }
                None => break,
            }
        }
        assert!(total_steps > 0, "{name}: no steps executed");
    }
}

/// Trap behaviour matches exactly: same trap kind at the same step, with the
/// thread left in the same state on both representations.
#[test]
fn decoded_execution_matches_reference_walker_on_traps() {
    use spice_ir::builder::FunctionBuilder;
    use spice_ir::BinOp;

    // Division by zero mid-loop.
    let mut b = FunctionBuilder::new("divides");
    let n = b.param();
    let q = b.binop(BinOp::Div, 100i64, n);
    b.ret(Some(Operand::Reg(q)));
    let mut p = Program::new();
    let f = p.add_func(b.finish());
    let decoded = DecodedProgram::new(&p);
    let mut mem_a = FlatMemory::new(2048);
    let mut mem_b = FlatMemory::new(2048);
    for alu_run in [0, 6] {
        let (a, b) = (&mut mem_a, &mut mem_b);
        lockstep_run("div_ok", &p, &decoded, f, &[4], a, b, 100, alu_run);
        lockstep_run("div_trap", &p, &decoded, f, &[0], a, b, 100, alu_run);
    }

    // Out-of-bounds store.
    let mut b = FunctionBuilder::new("oob");
    b.store(1i64, 9_999_999i64, 0);
    b.ret(None);
    let mut p = Program::new();
    let f = p.add_func(b.finish());
    let decoded = DecodedProgram::new(&p);
    lockstep_run("oob", &p, &decoded, f, &[], &mut mem_a, &mut mem_b, 100, 0);
}

/// Program-wide pcs across calls, returns, traps and resteers: a
/// three-function program (`main` = function 0 calls `mid`, which calls
/// `leaf` with one register and one immediate argument from the middle of a
/// block) stepped in lockstep with the reference walker, checking at every
/// step that the pc the decoded thread holds maps back — through its current
/// function's `source_of` and `block_entry` — to exactly the structured
/// position the walker is at.
#[test]
fn program_wide_pcs_track_the_structured_position_across_functions() {
    use spice_ir::builder::FunctionBuilder;
    use spice_ir::BinOp;

    let (main_id, mid_id, leaf_id) = (FuncId(0), FuncId(1), FuncId(2));
    let mut p = Program::new();

    let mut b = FunctionBuilder::new("main");
    let n = b.param();
    let v = b.call(mid_id, vec![Operand::Reg(n)]);
    let w = b.binop(BinOp::Add, v, 1i64);
    b.ret(Some(Operand::Reg(w)));
    assert_eq!(p.add_func(b.finish()), main_id);

    let mut b = FunctionBuilder::new("mid");
    let n = b.param();
    let positive = b.new_block();
    let negative = b.new_block();
    let s = b.binop(BinOp::Mul, n, 3i64);
    let c = b.call(leaf_id, vec![Operand::Reg(n), Operand::Imm(84)]);
    let u = b.binop(BinOp::Add, c, s); // the return lands mid-block
    let is_pos = b.binop(BinOp::Gt, u, 0i64);
    b.cond_br(is_pos, positive, negative);
    b.switch_to(positive);
    b.ret(Some(Operand::Reg(u)));
    b.switch_to(negative);
    let m = b.binop(BinOp::Sub, 0i64, u);
    b.ret(Some(Operand::Reg(m)));
    assert_eq!(p.add_func(b.finish()), mid_id);

    let mut b = FunctionBuilder::new("leaf");
    let a = b.param();
    let d = b.param();
    let tail = b.new_block();
    let recover = b.new_labeled_block("recover");
    let q = b.binop(BinOp::Div, d, a); // traps when a == 0
    b.br(tail);
    b.switch_to(tail);
    let r = b.binop(BinOp::Add, q, -7i64);
    b.ret(Some(Operand::Reg(r)));
    b.switch_to(recover);
    b.push(Inst::Nop);
    b.ret(Some(Operand::Imm(i64::MIN)));
    assert_eq!(p.add_func(b.finish()), leaf_id);

    let decoded = DecodedProgram::new(&p);
    let mut mem = FlatMemory::new(64);
    let mut sys = LocalSys::new();

    let check = |dec: &ThreadState, refr: &RefThread, what: &str| {
        assert_eq!(dec.current_func(), refr.func, "{what}: function");
        assert_eq!(dec.current_block(), refr.block, "{what}: block");
        let df = decoded.func(refr.func);
        let pc = dec.pc().unwrap_or_else(|| df.block_entry(refr.block));
        assert_eq!(df.source_of(pc), (refr.block, refr.ip), "{what}: source");
        let block = p.func(refr.func).block(refr.block);
        assert!(
            refr.ip <= block.insts.len(),
            "{what}: cursor past terminator"
        );
        assert_eq!(df.block_entry(refr.block) + refr.ip, pc, "{what}: entry");
    };

    // n = 4: main -> mid -> leaf and back, taking the positive arm.
    // n = -4: the negative arm.
    for (n, expected) in [(4i64, 84 / 4 - 7 + 12 + 1), (-4, 84 / 4 + 7 + 12 + 1)] {
        let mut dec = ThreadState::new(&decoded, main_id, &[n]);
        let mut refr = RefThread::new(&p, main_id, &[n]);
        let mut seen = std::collections::HashSet::new();
        loop {
            check(&dec, &refr, &format!("n = {n}"));
            seen.insert(refr.func);
            let a = dec.step(&decoded, &mut mem, &mut sys);
            assert_eq!(a, refr.step(&p, &mut mem, &mut sys), "n = {n}");
            if let Ok(StepEvent::Finished(v)) = a {
                assert_eq!(v, Some(expected));
                break;
            }
        }
        assert_eq!(seen.len(), 3, "every function was entered");
    }

    // n = 0: the division traps inside `leaf` (two calls deep, function 2).
    // Both threads are then resteered into `recover`, a non-entry block of
    // that function, and return through both suspended frames.
    let mut dec = ThreadState::new(&decoded, main_id, &[0]);
    let mut refr = RefThread::new(&p, main_id, &[0]);
    let trap = loop {
        check(&dec, &refr, "n = 0");
        let a = dec.step(&decoded, &mut mem, &mut sys);
        assert_eq!(a, refr.step(&p, &mut mem, &mut sys));
        if let Err(t) = a {
            break t;
        }
    };
    assert_eq!(trap, TrapKind::DivideByZero);
    assert_eq!(dec.current_func(), leaf_id);
    check(&dec, &refr, "trapped");
    assert_eq!(dec.step(&decoded, &mut mem, &mut sys), Err(trap));

    dec.resteer_to(recover);
    (refr.block, refr.ip, refr.status) = (recover, 0, ThreadStatus::Runnable);
    assert_eq!(dec.pc(), None, "resolved by the next step");
    let mut steps = 0;
    let result = loop {
        check(&dec, &refr, "resteered");
        let a = dec.step(&decoded, &mut mem, &mut sys);
        assert_eq!(a, refr.step(&p, &mut mem, &mut sys));
        steps += 1;
        if let Ok(StepEvent::Finished(v)) = a {
            break v;
        }
        assert!(dec.pc().is_some());
    };
    // nop, ret (leaf); add, gt, condbr, sub, ret (mid); add, ret (main).
    assert_eq!(steps, 9);
    // u = i64::MIN + 0 is negative: mid returns 0 - u, which wraps back.
    assert_eq!(result, Some(i64::MIN.wrapping_add(1)));
}

/// The dispatch loop indexes one array of decoded instructions; pin its
/// stride so an operand that regrows past a frame slot shows up here.
#[test]
fn decoded_instruction_stays_within_32_bytes() {
    let bytes = std::hint::black_box(DecodedProgram::INST_BYTES);
    assert!(bytes <= 32, "{bytes} bytes");
}

/// `ExecInfo` is the per-step return value of the dispatch hot path; pin its
/// packed one-word representation and the accessor round-trips so a future
/// field addition can't silently regrow it.
#[test]
fn exec_info_stays_one_packed_word() {
    assert_eq!(std::mem::size_of::<ExecInfo>(), 8);

    for class in InstClass::ALL {
        let info = ExecInfo::plain(class);
        assert_eq!(info.class(), class);
        assert_eq!(info.mem_addr(), None);
        assert_eq!(info.branch_taken(), None);
    }

    // Address payloads round-trip across the full word-address range the
    // simulator uses, including negative (pre-base) addresses from traps.
    for addr in [0i64, 1, -1, 4096, -4096, (1i64 << 53) - 1, -(1i64 << 53)] {
        for class in [InstClass::Load, InstClass::Store] {
            let info = ExecInfo::mem(class, addr);
            assert_eq!(info.class(), class);
            assert_eq!(info.mem_addr(), Some(addr));
            assert_eq!(info.branch_taken(), None);
        }
    }

    for taken in [false, true] {
        let info = ExecInfo::branch(taken);
        assert_eq!(info.class(), InstClass::Branch);
        assert_eq!(info.mem_addr(), None);
        assert_eq!(info.branch_taken(), Some(taken));
    }
}
