//! Functional execution of the IR.
//!
//! Two layers live here:
//!
//! * [`ThreadState`]: a single thread of execution that can be *stepped* one
//!   instruction at a time against pluggable memory ([`MemPort`]) and system
//!   ([`SysPort`]) back-ends. The multi-core timing simulator in `spice-sim`
//!   drives one `ThreadState` per core and supplies ports that model caches,
//!   speculative store buffers and inter-core channels.
//! * [`run_function`] / [`run_decoded_with`]: single-threaded execution
//!   used by tests, the plain-interpreter backend and the whole-program
//!   hotness measurement (paper Table 2). One observer, called with the
//!   thread before every step, is how the value profiler and the hotness
//!   count watch a run without changing it.
//!
//! Execution runs over the pre-decoded form ([`DecodedProgram`], see
//! [`crate::decoded`]): the structured IR is flattened once into one dense
//! program-wide instruction array whose operands are frame slots, and the
//! per-step hot loop is a single array index with no function lookup, no
//! register-or-immediate match, no terminator clones and no per-call
//! argument `Vec`s. The decode is semantically invisible — the retired
//! [`ExecInfo`] stream is identical to what a structured walker produces
//! (the cross-representation equivalence tests in `crates/tests` step both
//! forms in lockstep).

use std::collections::VecDeque;

use crate::decoded::{DInst, DecodedProgram};
use crate::function::Program;
use crate::inst::InstClass;
use crate::types::{BlockId, FuncId, Reg, TrapKind};

/// Memory back-end used by [`ThreadState::step`].
pub trait MemPort {
    /// Loads the word at `addr`.
    ///
    /// # Errors
    ///
    /// Returns a trap if the address is invalid for this memory.
    fn load(&mut self, addr: i64) -> Result<i64, TrapKind>;

    /// Stores `value` to `addr`.
    ///
    /// # Errors
    ///
    /// Returns a trap if the address is invalid for this memory.
    fn store(&mut self, addr: i64, value: i64) -> Result<(), TrapKind>;
}

/// System back-end used by [`ThreadState::step`] for inter-thread and
/// speculation intrinsics.
pub trait SysPort {
    /// Enqueues `value` on channel `chan`.
    fn send(&mut self, chan: i64, value: i64);

    /// Dequeues a value from channel `chan`, or returns `None` if the channel
    /// is currently empty (the thread will retry the `Recv` on its next
    /// step).
    fn try_recv(&mut self, chan: i64) -> Option<i64>;

    /// Enters speculative execution on the calling core.
    fn spec_begin(&mut self) {}

    /// Commits buffered speculative state.
    fn spec_commit(&mut self) {}

    /// Discards buffered speculative state.
    fn spec_abort(&mut self) {}

    /// Answers a [`crate::Inst::SpecCheck`]: 1 if the speculative read set
    /// of the thread on `core` conflicts with the writes committed so far in
    /// this loop invocation, 0 otherwise. Back-ends without conflict
    /// detection (single-threaded runs, profilers) report no conflicts.
    fn spec_conflict(&mut self, _core: i64) -> i64 {
        0
    }

    /// Requests that the thread on `core` be redirected to `target` in its
    /// current function.
    fn resteer(&mut self, core: i64, target: BlockId);
}

/// Simple flat word-addressable memory.
///
/// Word addresses run from 0 to `size - 1`. A program's memory is exactly its
/// globals: [`FlatMemory::for_program`] sizes it `program.data_end()` words
/// and copies every global initializer into place. Nothing lies past the
/// globals, so a wild load there — a stale speculative chunk walking a
/// pointer it should not have followed — traps, and the squash that follows
/// discards it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlatMemory {
    words: Vec<i64>,
}

impl FlatMemory {
    /// Creates a zeroed memory of `size` words.
    #[must_use]
    pub fn new(size: usize) -> Self {
        FlatMemory {
            words: vec![0; size],
        }
    }

    /// Creates a memory of `program.data_end() + extra_words` words — the
    /// globals plus `extra_words` zeroed words past them — and copies every
    /// global initializer into place. Every backend passes 0.
    #[must_use]
    pub fn for_program(program: &Program, extra_words: usize) -> Self {
        let mut mem = FlatMemory::new(program.data_end() as usize + extra_words);
        for g in &program.globals {
            let base = g.base as usize;
            mem.words[base..base + g.init.len()].copy_from_slice(&g.init);
        }
        mem
    }

    /// Number of words in this memory.
    #[must_use]
    pub fn size(&self) -> usize {
        self.words.len()
    }

    /// Reads a word without going through the [`MemPort`] trait.
    ///
    /// # Errors
    ///
    /// Returns [`TrapKind::OutOfBoundsAccess`] for addresses outside memory.
    #[inline]
    pub fn read(&self, addr: i64) -> Result<i64, TrapKind> {
        self.words
            .get(usize::try_from(addr).map_err(|_| TrapKind::OutOfBoundsAccess { addr })?)
            .copied()
            .ok_or(TrapKind::OutOfBoundsAccess { addr })
    }

    /// Writes a word without going through the [`MemPort`] trait.
    ///
    /// # Errors
    ///
    /// Returns [`TrapKind::OutOfBoundsAccess`] for addresses outside memory.
    #[inline]
    pub fn write(&mut self, addr: i64, value: i64) -> Result<(), TrapKind> {
        let slot = usize::try_from(addr)
            .ok()
            .and_then(|idx| self.words.get_mut(idx))
            .ok_or(TrapKind::OutOfBoundsAccess { addr })?;
        *slot = value;
        Ok(())
    }

    /// All words (used by equivalence tests).
    #[must_use]
    pub fn words(&self) -> &[i64] {
        &self.words
    }
}

impl MemPort for FlatMemory {
    fn load(&mut self, addr: i64) -> Result<i64, TrapKind> {
        self.read(addr)
    }

    fn store(&mut self, addr: i64, value: i64) -> Result<(), TrapKind> {
        self.write(addr, value)
    }
}

/// Channel ids below this bound index a dense queue table directly; anything
/// else (negative or huge ids, which only adversarial tests produce) falls
/// back to a small association list.
const DENSE_CHANNELS: i64 = 1 << 12;

/// A set of FIFO queues keyed by channel id, dense for the small
/// non-negative ids every real program uses. Replaces the former
/// `HashMap<i64, VecDeque<_>>` channel tables on the hot send/recv paths of
/// both the single-threaded [`LocalSys`] and the simulator's channel network.
#[derive(Debug, Clone)]
pub struct ChannelTable<T> {
    dense: Vec<VecDeque<T>>,
    spill: Vec<(i64, VecDeque<T>)>,
}

impl<T> Default for ChannelTable<T> {
    fn default() -> Self {
        ChannelTable {
            dense: Vec::new(),
            spill: Vec::new(),
        }
    }
}

impl<T> ChannelTable<T> {
    /// Creates an empty table.
    #[must_use]
    pub fn new() -> Self {
        ChannelTable::default()
    }

    /// The queue of `chan`, created empty if absent.
    pub fn queue_mut(&mut self, chan: i64) -> &mut VecDeque<T> {
        if (0..DENSE_CHANNELS).contains(&chan) {
            let idx = chan as usize;
            if self.dense.len() <= idx {
                self.dense.resize_with(idx + 1, VecDeque::new);
            }
            &mut self.dense[idx]
        } else {
            let pos = match self.spill.iter().position(|(c, _)| *c == chan) {
                Some(p) => p,
                None => {
                    self.spill.push((chan, VecDeque::new()));
                    self.spill.len() - 1
                }
            };
            &mut self.spill[pos].1
        }
    }

    /// The queue of `chan`, if one was ever created.
    #[must_use]
    pub fn queue(&self, chan: i64) -> Option<&VecDeque<T>> {
        if (0..DENSE_CHANNELS).contains(&chan) {
            self.dense.get(chan as usize)
        } else {
            self.spill.iter().find(|(c, _)| *c == chan).map(|(_, q)| q)
        }
    }

    /// Like [`ChannelTable::queue`], mutably, without creating the queue.
    pub fn existing_mut(&mut self, chan: i64) -> Option<&mut VecDeque<T>> {
        if (0..DENSE_CHANNELS).contains(&chan) {
            self.dense.get_mut(chan as usize)
        } else {
            self.spill
                .iter_mut()
                .find(|(c, _)| *c == chan)
                .map(|(_, q)| q)
        }
    }

    /// Iterates every queue (dense and spilled).
    pub fn queues(&self) -> impl Iterator<Item = &VecDeque<T>> {
        self.dense.iter().chain(self.spill.iter().map(|(_, q)| q))
    }

    /// Empties every queue, keeping the table and queue allocations.
    pub fn clear_queues(&mut self) {
        for q in &mut self.dense {
            q.clear();
        }
        for (_, q) in &mut self.spill {
            q.clear();
        }
    }
}

/// In-process channel set usable when a single thread sends to itself or when
/// a test wants deterministic channel behaviour without a full machine. A
/// resteer has no other thread to reach, so it does nothing.
#[derive(Debug, Default, Clone)]
pub struct LocalSys {
    channels: ChannelTable<i64>,
}

impl LocalSys {
    /// Creates an empty channel set.
    #[must_use]
    pub fn new() -> Self {
        LocalSys::default()
    }
}

impl SysPort for LocalSys {
    fn send(&mut self, chan: i64, value: i64) {
        self.channels.queue_mut(chan).push_back(value);
    }

    fn try_recv(&mut self, chan: i64) -> Option<i64> {
        self.channels
            .existing_mut(chan)
            .and_then(VecDeque::pop_front)
    }

    fn resteer(&mut self, _core: i64, _target: BlockId) {}
}

/// Maximum call depth of a [`ThreadState`].
pub const MAX_CALL_DEPTH: usize = 1024;

/// What happened when a thread was stepped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepEvent {
    /// An instruction (or terminator) retired.
    Executed(ExecInfo),
    /// The thread is blocked on a `Recv` whose channel is empty; nothing
    /// retired this step.
    Blocked,
    /// The outermost function returned with the given value.
    Finished(Option<i64>),
}

/// Timing-relevant description of a retired instruction, packed into a
/// single machine word so the per-step return of the decoded-dispatch hot
/// path is one register wide:
///
/// ```text
/// bits 0..=3   functional-unit class ([`InstClass::index`], < 16)
/// bit  4       a memory word address is attached (loads and stores)
/// bit  5       a branch direction is attached (control transfers)
/// bit  6       the branch was taken (valid only when bit 5 is set)
/// bits 8..=63  signed word address payload (valid only when bit 4 is set)
/// ```
///
/// Word addresses are indices into a [`FlatMemory`], far below the 56-bit
/// payload capacity; the `mem` constructor debug-asserts the round trip.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct ExecInfo(u64);

impl ExecInfo {
    const CLASS_MASK: u64 = 0xf;
    const HAS_MEM: u64 = 1 << 4;
    const HAS_BRANCH: u64 = 1 << 5;
    const BRANCH_TAKEN: u64 = 1 << 6;
    const ADDR_SHIFT: u32 = 8;

    /// An instruction that touches neither memory nor control flow.
    #[must_use]
    #[inline]
    pub fn plain(class: InstClass) -> Self {
        ExecInfo(class.index() as u64)
    }

    /// A load or store that touched word address `addr`.
    #[must_use]
    #[inline]
    pub fn mem(class: InstClass, addr: i64) -> Self {
        let packed =
            ExecInfo(class.index() as u64 | Self::HAS_MEM | ((addr as u64) << Self::ADDR_SHIFT));
        debug_assert_eq!(packed.mem_addr(), Some(addr), "address payload overflow");
        packed
    }

    /// A control transfer with its resolved direction.
    #[must_use]
    #[inline]
    pub fn branch(taken: bool) -> Self {
        ExecInfo(
            InstClass::Branch.index() as u64
                | Self::HAS_BRANCH
                | if taken { Self::BRANCH_TAKEN } else { 0 },
        )
    }

    /// Functional-unit class.
    #[must_use]
    #[inline]
    pub fn class(self) -> InstClass {
        InstClass::ALL[(self.0 & Self::CLASS_MASK) as usize]
    }

    /// Word address touched, for loads and stores.
    #[must_use]
    #[inline]
    pub fn mem_addr(self) -> Option<i64> {
        (self.0 & Self::HAS_MEM != 0).then_some((self.0 as i64) >> Self::ADDR_SHIFT)
    }

    /// For branches: whether the branch was taken.
    #[must_use]
    #[inline]
    pub fn branch_taken(self) -> Option<bool> {
        (self.0 & Self::HAS_BRANCH != 0).then_some(self.0 & Self::BRANCH_TAKEN != 0)
    }
}

impl std::fmt::Debug for ExecInfo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExecInfo")
            .field("class", &self.class())
            .field("mem_addr", &self.mem_addr())
            .field("branch_taken", &self.branch_taken())
            .finish()
    }
}

/// Execution status of a thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ThreadStatus {
    /// The thread can be stepped.
    Runnable,
    /// The thread's outermost function returned.
    Finished,
    /// The thread trapped.
    Trapped(TrapKind),
}

/// A suspended caller: where it resumes (a program-wide pc) and its frame
/// (registers, then its function's constant pool).
#[derive(Debug, Clone)]
struct Frame {
    func: FuncId,
    pc: usize,
    block: BlockId,
    regs: Vec<i64>,
    ret_dst: Option<u32>,
}

/// Sentinel pc meaning "re-enter [`ThreadState::current_block`] at its first
/// instruction" — set by [`ThreadState::resteer_to`], which has no decoded
/// function at hand to resolve the block's entry pc; the next step resolves
/// it. Past the end of every program, so the step's one instruction-array
/// bounds check is also the test for it.
const RESTEER_PENDING: usize = usize::MAX;

/// A single thread of IR execution over the pre-decoded program form.
///
/// The register file is function-local; calls push frames. The thread is
/// deliberately ignorant of time — the caller decides what each retired
/// instruction costs.
#[derive(Debug, Clone)]
pub struct ThreadState {
    func: FuncId,
    /// Program-wide pc of the next instruction, or [`RESTEER_PENDING`].
    pc: usize,
    block: BlockId,
    /// The innermost frame: `reg_count` registers, then the current
    /// function's constant pool (see [`crate::decoded`]).
    regs: Vec<i64>,
    /// Architectural registers of the current function — the bound
    /// [`ThreadState::reg`] and [`ThreadState::set_reg`] enforce, updated on
    /// call and return.
    reg_count: usize,
    frames: Vec<Frame>,
    status: ThreadStatus,
    retired: u64,
}

impl ThreadState {
    /// Creates a thread positioned at the entry of `func` with `args` bound
    /// to the function's parameters.
    ///
    /// # Panics
    ///
    /// Panics if `args.len()` differs from the function's parameter count.
    #[must_use]
    pub fn new(program: &DecodedProgram, func: FuncId, args: &[i64]) -> Self {
        let f = program.func(func);
        assert_eq!(
            args.len(),
            f.params.len(),
            "wrong number of arguments for {}",
            f.name
        );
        ThreadState {
            func,
            pc: f.entry_pc(),
            block: f.entry_block(),
            regs: f.new_frame(args.iter().copied()),
            reg_count: f.reg_count,
            frames: Vec::new(),
            status: ThreadStatus::Runnable,
            retired: 0,
        }
    }

    /// The function currently executing (innermost frame).
    #[must_use]
    pub fn current_func(&self) -> FuncId {
        self.func
    }

    /// The block the thread is currently in.
    #[must_use]
    pub fn current_block(&self) -> BlockId {
        self.block
    }

    /// Current status.
    #[must_use]
    pub fn status(&self) -> ThreadStatus {
        self.status
    }

    /// Number of retired instructions (terminators included).
    #[must_use]
    pub fn retired(&self) -> u64 {
        self.retired
    }

    /// The program-wide pc of the next instruction; `None` between a
    /// [`ThreadState::resteer_to`] and the step that resolves its target
    /// block's entry.
    #[must_use]
    pub fn pc(&self) -> Option<usize> {
        (self.pc != RESTEER_PENDING).then_some(self.pc)
    }

    /// Reads a register of the innermost frame.
    ///
    /// # Panics
    ///
    /// Panics if the register is out of range for the current function (the
    /// frame's constant-pool slots past its registers included).
    #[must_use]
    pub fn reg(&self, r: Reg) -> i64 {
        self.regs[..self.reg_count][r.index()]
    }

    /// Writes a register of the innermost frame.
    ///
    /// # Panics
    ///
    /// Panics if the register is out of range for the current function (the
    /// frame's constant-pool slots past its registers included).
    pub fn set_reg(&mut self, r: Reg, value: i64) {
        self.regs[..self.reg_count][r.index()] = value;
    }

    /// Redirects the thread to `target` in its current function, clearing the
    /// instruction cursor — the effect of an incoming remote resteer
    /// (paper §3). Also clears a trapped or blocked state: a speculative
    /// thread that chased a dangling pointer and faulted is recovered this
    /// way.
    pub fn resteer_to(&mut self, target: BlockId) {
        self.block = target;
        self.pc = RESTEER_PENDING;
        self.status = ThreadStatus::Runnable;
    }

    /// The value in frame slot `slot`: a register or a pool constant.
    #[inline]
    fn operand(&self, slot: u32) -> i64 {
        self.regs[slot as usize]
    }

    /// What stepping a thread that is not runnable reports. Out of line so
    /// the step's own test is one compare, not a dispatch on the status.
    #[cold]
    fn step_stopped(&self) -> Result<StepEvent, TrapKind> {
        match self.status {
            ThreadStatus::Runnable => unreachable!("a runnable thread steps"),
            ThreadStatus::Finished => Ok(StepEvent::Finished(None)),
            ThreadStatus::Trapped(k) => Err(k),
        }
    }

    /// Resolves the pc a [`ThreadState::resteer_to`] left pending.
    #[cold]
    fn resolve_resteer(&mut self, program: &DecodedProgram) -> usize {
        assert_eq!(self.pc, RESTEER_PENDING, "pc outside the program");
        self.pc = program.func(self.func).block_entry(self.block);
        self.pc
    }

    #[cold]
    fn trap(&mut self, kind: TrapKind) -> Result<StepEvent, TrapKind> {
        self.status = ThreadStatus::Trapped(kind);
        Err(kind)
    }

    /// Executes `inst` if it only reads and writes registers — `Binary`,
    /// `Copy`, `Select`, `Nop` — and returns its class, or the trap its
    /// evaluation raises, having written nothing. With `co_issued_only`, a
    /// `Binary` of a class that does not co-issue (a multiply, a divide) is
    /// left alone like every other instruction: `None`, thread untouched.
    /// These instructions' one definition, shared by [`ThreadState::step`]
    /// and [`ThreadState::retire_alu_run`].
    #[inline(always)]
    fn exec_register_op(
        &mut self,
        inst: &DInst,
        co_issued_only: bool,
    ) -> Option<Result<InstClass, TrapKind>> {
        let class = match inst {
            DInst::Binary {
                op,
                class,
                dst,
                lhs,
                rhs,
            } => {
                if co_issued_only && !matches!(class, InstClass::IntAlu | InstClass::Other) {
                    return None;
                }
                match op.eval(self.operand(*lhs), self.operand(*rhs)) {
                    Ok(v) => self.regs[*dst as usize] = v,
                    Err(t) => return Some(Err(t)),
                }
                *class
            }
            DInst::Copy { dst, src } => {
                self.regs[*dst as usize] = self.operand(*src);
                InstClass::IntAlu
            }
            DInst::Select {
                dst,
                cond,
                if_true,
                if_false,
            } => {
                self.regs[*dst as usize] = if self.operand(*cond) != 0 {
                    self.operand(*if_true)
                } else {
                    self.operand(*if_false)
                };
                InstClass::IntAlu
            }
            DInst::Nop => InstClass::Other,
            _ => return None,
        };
        Some(Ok(class))
    }

    /// Retires up to `k` consecutive co-issuable ALU instructions —
    /// `Binary` of class `IntAlu` or `Other`, `Copy`, `Select`, `Nop` — in
    /// one call and returns how many: exactly what that many
    /// [`ThreadState::step`]s would have done, each reporting a plain
    /// `IntAlu`/`Other` event. Stops before any other instruction and
    /// before an operation whose evaluation traps (the next step raises
    /// it), and retires nothing on a thread that is not runnable or whose
    /// resteer target the next step has yet to resolve.
    #[inline]
    pub fn retire_alu_run(&mut self, program: &DecodedProgram, k: u64) -> u64 {
        if self.status != ThreadStatus::Runnable {
            return 0;
        }
        let mut n = 0;
        while n < k {
            match program.insts.get(self.pc) {
                Some(inst) if matches!(self.exec_register_op(inst, true), Some(Ok(_))) => {
                    self.pc += 1;
                    n += 1;
                }
                _ => break,
            }
        }
        self.retired += n;
        n
    }

    /// Executes at most one instruction.
    ///
    /// Generic over the ports (instead of taking `&mut dyn`) so every
    /// driver's step loop monomorphizes: the simulator's cache-model ports
    /// and the native backend's heap ports inline straight into the
    /// dispatch.
    ///
    /// # Errors
    ///
    /// Returns the trap if the instruction faults; the thread's status is set
    /// to [`ThreadStatus::Trapped`] as well so the caller can squash or
    /// recover it later.
    pub fn step<M: MemPort + ?Sized, S: SysPort + ?Sized>(
        &mut self,
        program: &DecodedProgram,
        mem: &mut M,
        sys: &mut S,
    ) -> Result<StepEvent, TrapKind> {
        if self.status != ThreadStatus::Runnable {
            return self.step_stopped();
        }
        let mut pc = self.pc;
        let inst = match program.insts.get(pc) {
            Some(inst) => inst,
            None => {
                pc = self.resolve_resteer(program);
                &program.insts[pc]
            }
        };
        if let Some(done) = self.exec_register_op(inst, false) {
            return match done {
                Ok(class) => {
                    self.pc = pc + 1;
                    self.retired += 1;
                    Ok(StepEvent::Executed(ExecInfo::plain(class)))
                }
                Err(t) => self.trap(t),
            };
        }
        match inst {
            DInst::Binary { .. } | DInst::Copy { .. } | DInst::Select { .. } | DInst::Nop => {
                unreachable!("register-only instructions execute above")
            }
            DInst::Load { dst, addr, offset } => {
                let a = self.operand(*addr) + offset;
                let v = match mem.load(a) {
                    Ok(v) => v,
                    Err(t) => return self.trap(t),
                };
                self.regs[*dst as usize] = v;
                self.pc = pc + 1;
                self.retired += 1;
                Ok(StepEvent::Executed(ExecInfo::mem(InstClass::Load, a)))
            }
            DInst::Store { src, addr, offset } => {
                let a = self.operand(*addr) + offset;
                if let Err(t) = mem.store(a, self.operand(*src)) {
                    return self.trap(t);
                }
                self.pc = pc + 1;
                self.retired += 1;
                Ok(StepEvent::Executed(ExecInfo::mem(InstClass::Store, a)))
            }
            DInst::Call { dst, func, args } => {
                if self.frames.len() >= MAX_CALL_DEPTH {
                    return self.trap(TrapKind::StackOverflow);
                }
                if func.index() >= program.func_count() {
                    return self.trap(TrapKind::UnknownFunction);
                }
                let callee = program.func(*func);
                if callee.params.len() != args.len() {
                    return self.trap(TrapKind::UnknownFunction);
                }
                let new_regs = callee.new_frame(args.iter().map(|a| self.operand(*a)));
                let frame = Frame {
                    func: self.func,
                    pc: pc + 1,
                    block: self.block,
                    regs: std::mem::replace(&mut self.regs, new_regs),
                    ret_dst: *dst,
                };
                self.frames.push(frame);
                self.func = *func;
                self.reg_count = callee.reg_count;
                self.block = callee.entry_block();
                self.pc = callee.entry_pc();
                self.retired += 1;
                Ok(StepEvent::Executed(ExecInfo::plain(InstClass::Branch)))
            }
            DInst::Send { chan, value } => {
                sys.send(self.operand(*chan), self.operand(*value));
                self.pc = pc + 1;
                self.retired += 1;
                Ok(StepEvent::Executed(ExecInfo::plain(InstClass::Send)))
            }
            DInst::Recv { dst, chan } => match sys.try_recv(self.operand(*chan)) {
                Some(v) => {
                    self.regs[*dst as usize] = v;
                    self.pc = pc + 1;
                    self.retired += 1;
                    Ok(StepEvent::Executed(ExecInfo::plain(InstClass::Recv)))
                }
                None => Ok(StepEvent::Blocked),
            },
            DInst::SpecBegin => {
                sys.spec_begin();
                self.pc = pc + 1;
                self.retired += 1;
                Ok(StepEvent::Executed(ExecInfo::plain(InstClass::Spec)))
            }
            DInst::SpecCommit => {
                sys.spec_commit();
                self.pc = pc + 1;
                self.retired += 1;
                Ok(StepEvent::Executed(ExecInfo::plain(InstClass::Spec)))
            }
            DInst::SpecAbort => {
                sys.spec_abort();
                self.pc = pc + 1;
                self.retired += 1;
                Ok(StepEvent::Executed(ExecInfo::plain(InstClass::Spec)))
            }
            DInst::SpecCheck { dst, core } => {
                let verdict = sys.spec_conflict(self.operand(*core));
                self.regs[*dst as usize] = verdict;
                self.pc = pc + 1;
                self.retired += 1;
                Ok(StepEvent::Executed(ExecInfo::plain(InstClass::Spec)))
            }
            DInst::Resteer { core, target } => {
                sys.resteer(self.operand(*core), *target);
                self.pc = pc + 1;
                self.retired += 1;
                Ok(StepEvent::Executed(ExecInfo::plain(InstClass::Resteer)))
            }
            // Terminators. Every terminator execution counts as retired,
            // exactly like the structured walker did — including a trapping
            // `Unreachable` and the outermost `Ret`.
            DInst::Br { pc: target, block } => {
                self.retired += 1;
                self.pc = *target as usize;
                self.block = *block;
                Ok(StepEvent::Executed(ExecInfo::branch(true)))
            }
            DInst::CondBr {
                cond,
                then_pc,
                then_block,
                else_pc,
                else_block,
            } => {
                self.retired += 1;
                let taken = self.operand(*cond) != 0;
                if taken {
                    self.pc = *then_pc as usize;
                    self.block = *then_block;
                } else {
                    self.pc = *else_pc as usize;
                    self.block = *else_block;
                }
                Ok(StepEvent::Executed(ExecInfo::branch(taken)))
            }
            DInst::Ret { value } => {
                self.retired += 1;
                let v = value.map(|op| self.operand(op));
                if let Some(frame) = self.frames.pop() {
                    self.func = frame.func;
                    self.pc = frame.pc;
                    self.block = frame.block;
                    self.regs = frame.regs;
                    self.reg_count = program.func(frame.func).reg_count;
                    if let (Some(dst), Some(v)) = (frame.ret_dst, v) {
                        self.regs[dst as usize] = v;
                    }
                    Ok(StepEvent::Executed(ExecInfo::branch(true)))
                } else {
                    self.status = ThreadStatus::Finished;
                    Ok(StepEvent::Finished(v))
                }
            }
            DInst::Unreachable => {
                self.retired += 1;
                self.status = ThreadStatus::Trapped(TrapKind::UnsupportedIntrinsic);
                Err(TrapKind::UnsupportedIntrinsic)
            }
        }
    }
}

/// Dynamic instruction statistics of a run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Total retired instructions.
    pub total: u64,
}

/// Result of a completed single-threaded run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunOutcome {
    /// Value returned by the outermost function, if any.
    pub return_value: Option<i64>,
    /// Dynamic instruction statistics.
    pub stats: ExecStats,
}

/// Default instruction budget for convenience runs.
pub const DEFAULT_FUEL: u64 = 500_000_000;

/// Runs `func` to completion on `mem` with a [`LocalSys`], decoding the
/// program first (a caller running many invocations of one program decodes
/// once itself and calls [`run_decoded_with`]).
///
/// # Errors
///
/// Returns any trap raised during execution, including
/// [`TrapKind::OutOfFuel`] if the run exceeds [`DEFAULT_FUEL`] instructions.
pub fn run_function(
    program: &Program,
    func: FuncId,
    args: &[i64],
    mem: &mut FlatMemory,
) -> Result<RunOutcome, TrapKind> {
    let decoded = DecodedProgram::new(program);
    run_decoded_with(
        &decoded,
        func,
        args,
        mem,
        &mut LocalSys::new(),
        DEFAULT_FUEL,
        |_| {},
    )
}

/// Runs `func` of a decoded program to completion with full control over
/// the ports and the fuel budget. `observer` is called with the thread
/// before every step, terminators included: its pc, function, block and
/// registers are those of the instruction about to execute. Observing
/// changes nothing about the run.
///
/// # Errors
///
/// Returns any trap raised during execution, [`TrapKind::OutOfFuel`] if the
/// fuel budget is exhausted, or [`TrapKind::UnsupportedIntrinsic`] if the
/// thread blocks forever on an empty channel.
pub fn run_decoded_with(
    decoded: &DecodedProgram,
    func: FuncId,
    args: &[i64],
    mem: &mut impl MemPort,
    sys: &mut impl SysPort,
    fuel: u64,
    mut observer: impl FnMut(&ThreadState),
) -> Result<RunOutcome, TrapKind> {
    let mut thread = ThreadState::new(decoded, func, args);
    let mut stats = ExecStats::default();
    let mut steps: u64 = 0;
    loop {
        if steps >= fuel {
            return Err(TrapKind::OutOfFuel);
        }
        steps += 1;
        observer(&thread);
        match thread.step(decoded, mem, sys)? {
            StepEvent::Executed(_) => stats.total += 1,
            StepEvent::Blocked => {
                // Single-threaded: nobody will ever fill the channel.
                return Err(TrapKind::UnsupportedIntrinsic);
            }
            StepEvent::Finished(v) => {
                return Ok(RunOutcome {
                    return_value: v,
                    stats,
                })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::types::{BinOp, Operand};

    fn simple_add_program() -> (Program, FuncId) {
        let mut b = FunctionBuilder::new("add");
        let x = b.param();
        let y = b.param();
        let s = b.binop(BinOp::Add, x, y);
        b.ret(Some(Operand::Reg(s)));
        let mut p = Program::new();
        let f = p.add_func(b.finish());
        (p, f)
    }

    #[test]
    fn add_function_returns_sum() {
        let (p, f) = simple_add_program();
        let mut mem = FlatMemory::new(2048);
        let out = run_function(&p, f, &[2, 40], &mut mem).unwrap();
        assert_eq!(out.return_value, Some(42));
        // The outermost `ret` is reported as `Finished`, not as a retired
        // branch, so only the ALU op is counted.
        assert_eq!(out.stats.total, 1);
    }

    #[test]
    fn wrong_arity_panics() {
        let (p, f) = simple_add_program();
        let dp = DecodedProgram::new(&p);
        let result = std::panic::catch_unwind(|| ThreadState::new(&dp, f, &[1]));
        assert!(result.is_err());
    }

    #[test]
    fn calls_push_and_pop_frames() {
        // callee(x) = x * 2 ; main() = callee(21)
        let mut cb = FunctionBuilder::new("callee");
        let x = cb.param();
        let d = cb.binop(BinOp::Mul, x, 2i64);
        cb.ret(Some(Operand::Reg(d)));

        let mut p = Program::new();
        let callee = p.add_func(cb.finish());

        let mut mb = FunctionBuilder::new("main");
        let r = mb.call(callee, vec![Operand::Imm(21)]);
        let r2 = mb.binop(BinOp::Add, r, 0i64);
        mb.ret(Some(Operand::Reg(r2)));
        let main = p.add_func(mb.finish());

        let mut mem = FlatMemory::new(2048);
        let out = run_function(&p, main, &[], &mut mem).unwrap();
        assert_eq!(out.return_value, Some(42));
    }

    /// `reg` / `set_reg` stop at the current function's registers: the
    /// frame's constant-pool tail is out of their reach, and the bound
    /// follows calls and returns.
    #[test]
    fn register_access_stops_at_the_constant_pool() {
        // callee(x): three registers; main(): two, and two pool constants.
        let mut cb = FunctionBuilder::new("callee");
        let x = cb.param();
        let d = cb.binop(BinOp::Mul, x, 2i64);
        let e = cb.binop(BinOp::Add, d, 0i64);
        cb.ret(Some(Operand::Reg(e)));
        let mut p = Program::new();
        let callee = p.add_func(cb.finish());
        let mut mb = FunctionBuilder::new("main");
        let r = mb.call(callee, vec![Operand::Imm(21)]);
        let r2 = mb.binop(BinOp::Add, r, 5i64);
        mb.ret(Some(Operand::Reg(r2)));
        let main = p.add_func(mb.finish());
        let dp = DecodedProgram::new(&p);
        assert_eq!(dp.func(main).reg_count(), 2);
        assert_eq!(dp.func(main).constants(), [21, 5]);

        let refused = |t: &ThreadState, r: Reg| {
            let mut t = t.clone();
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| t.set_reg(r, 1))).is_err()
                && std::panic::catch_unwind(|| t.reg(r)).is_err()
        };
        let mut mem = FlatMemory::new(64);
        let mut sys = LocalSys::new();
        let mut t = ThreadState::new(&dp, main, &[]);
        assert_eq!(t.reg(r2), 0);
        assert!(refused(&t, Reg(2)), "first pool slot of main");
        assert!(refused(&t, Reg(3)));
        t.step(&dp, &mut mem, &mut sys).unwrap(); // call
        assert_eq!(t.current_func(), callee);
        assert_eq!(t.reg(x), 21);
        t.set_reg(e, 9); // r2 exists in the callee
        assert!(refused(&t, Reg(3)), "first pool slot of callee");
        for _ in 0..3 {
            t.step(&dp, &mut mem, &mut sys).unwrap(); // mul, add, ret
        }
        assert_eq!(t.current_func(), main);
        assert_eq!(t.reg(r), 42);
        assert!(refused(&t, Reg(2)), "the bound came back with the frame");
        // The pool survived the round trip: `r + 5` still reads 5.
        t.step(&dp, &mut mem, &mut sys).unwrap();
        assert_eq!(
            t.step(&dp, &mut mem, &mut sys).unwrap(),
            StepEvent::Finished(Some(47))
        );
    }

    #[test]
    fn load_store_roundtrip() {
        let mut b = FunctionBuilder::new("mem");
        let addr = b.param();
        b.store(99i64, addr, 3);
        let v = b.load(addr, 3);
        b.ret(Some(Operand::Reg(v)));
        let mut p = Program::new();
        let f = p.add_func(b.finish());
        let mut mem = FlatMemory::new(2048);
        let out = run_function(&p, f, &[1500], &mut mem).unwrap();
        assert_eq!(out.return_value, Some(99));
        assert_eq!(mem.read(1503).unwrap(), 99);
    }

    #[test]
    fn out_of_bounds_load_traps() {
        let mut b = FunctionBuilder::new("oob");
        let v = b.load(1_000_000i64, 0);
        b.ret(Some(Operand::Reg(v)));
        let mut p = Program::new();
        let f = p.add_func(b.finish());
        let mut mem = FlatMemory::new(2048);
        let err = run_function(&p, f, &[], &mut mem).unwrap_err();
        assert_eq!(err, TrapKind::OutOfBoundsAccess { addr: 1_000_000 });
    }

    #[test]
    fn infinite_loop_runs_out_of_fuel() {
        let mut b = FunctionBuilder::new("spin");
        let header = b.new_block();
        b.br(header);
        b.switch_to(header);
        b.br(header);
        let mut p = Program::new();
        let f = p.add_func(b.finish());
        let dp = DecodedProgram::new(&p);
        let mut mem = FlatMemory::new(64);
        let err = run_decoded_with(&dp, f, &[], &mut mem, &mut LocalSys::new(), 1000, |_| {})
            .unwrap_err();
        assert_eq!(err, TrapKind::OutOfFuel);
    }

    #[test]
    fn send_recv_through_local_sys() {
        let mut b = FunctionBuilder::new("chan");
        b.send(7i64, 123i64);
        let v = b.recv(7i64);
        b.ret(Some(Operand::Reg(v)));
        let mut p = Program::new();
        let f = p.add_func(b.finish());
        let mut mem = FlatMemory::new(64);
        let out = run_function(&p, f, &[], &mut mem).unwrap();
        assert_eq!(out.return_value, Some(123));
    }

    #[test]
    fn channel_table_handles_spilled_ids() {
        // Negative and enormous channel ids fall off the dense table; they
        // must still behave as FIFO queues.
        let mut sys = LocalSys::new();
        for chan in [-3i64, i64::MAX - 1, 5] {
            assert_eq!(sys.try_recv(chan), None);
            sys.send(chan, 1);
            sys.send(chan, 2);
        }
        for chan in [-3i64, i64::MAX - 1, 5] {
            assert_eq!(sys.try_recv(chan), Some(1));
            assert_eq!(sys.try_recv(chan), Some(2));
            assert_eq!(sys.try_recv(chan), None);
        }
    }

    #[test]
    fn blocked_recv_is_reported() {
        let mut b = FunctionBuilder::new("block");
        let v = b.recv(1i64);
        b.ret(Some(Operand::Reg(v)));
        let mut p = Program::new();
        let f = p.add_func(b.finish());
        let dp = DecodedProgram::new(&p);
        let mut mem = FlatMemory::new(64);
        let mut sys = LocalSys::new();
        let mut t = ThreadState::new(&dp, f, &[]);
        assert_eq!(t.step(&dp, &mut mem, &mut sys).unwrap(), StepEvent::Blocked);
        // Still runnable; delivering a value unblocks it.
        sys.send(1, 5);
        assert!(matches!(
            t.step(&dp, &mut mem, &mut sys).unwrap(),
            StepEvent::Executed(_)
        ));
    }

    #[test]
    fn resteer_recovers_trapped_thread() {
        let mut b = FunctionBuilder::new("fault");
        let recover = b.new_labeled_block("recover");
        let v = b.load(1_000_000i64, 0); // traps
        b.ret(Some(Operand::Reg(v)));
        b.switch_to(recover);
        b.ret(Some(Operand::Imm(-1)));
        let mut p = Program::new();
        let f = p.add_func(b.finish());
        let dp = DecodedProgram::new(&p);
        let mut mem = FlatMemory::new(64);
        let mut sys = LocalSys::new();
        let mut t = ThreadState::new(&dp, f, &[]);
        assert!(t.step(&dp, &mut mem, &mut sys).is_err());
        assert!(matches!(t.status(), ThreadStatus::Trapped(_)));
        t.resteer_to(recover);
        assert_eq!(t.status(), ThreadStatus::Runnable);
        let ev = t.step(&dp, &mut mem, &mut sys).unwrap();
        assert_eq!(ev, StepEvent::Finished(Some(-1)));
    }

    #[test]
    fn globals_are_materialized_by_for_program() {
        let mut p = Program::new();
        let base = p.add_global_init("table", 4, vec![9, 8]);
        let mem = FlatMemory::for_program(&p, 0);
        assert_eq!(mem.read(base).unwrap(), 9);
        assert_eq!(mem.read(base + 1).unwrap(), 8);
        assert_eq!(mem.read(base + 3).unwrap(), 0);
        assert_eq!(
            mem.size(),
            p.data_end() as usize,
            "the globals, nothing past"
        );
        assert!(mem.read(p.data_end()).is_err());
    }

    /// The observer sees the thread before every step, the terminator's
    /// included, with the registers as the instruction about to run reads
    /// them.
    #[test]
    fn observer_sees_instructions() {
        let (p, f) = simple_add_program();
        let dp = DecodedProgram::new(&p);
        let entry = dp.func(f).entry_pc();
        let mut mem = FlatMemory::new(64);
        let mut seen = Vec::new();
        run_decoded_with(&dp, f, &[1, 2], &mut mem, &mut LocalSys::new(), 100, |t| {
            seen.push((t.pc(), t.reg(Reg(2))));
        })
        .unwrap();
        // The add, then the `ret` reading its result.
        assert_eq!(seen, [(Some(entry), 0), (Some(entry + 1), 3)]);
    }
}
