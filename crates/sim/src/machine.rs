//! The event-driven multi-core machine.
//!
//! One [`spice_ir::interp::ThreadState`] runs per core over the pre-decoded
//! program form ([`spice_ir::DecodedProgram`]). At every *active* cycle,
//! each core that is not stalled retires at most one issue group; loads and
//! stores walk the [`crate::cache::MemoryHierarchy`] and stall the core for
//! the resulting latency, scalar sends become visible to the receiving core
//! after the configured inter-core latency, and speculative stores land in
//! the per-core [`crate::specbuf::SpecBuffer`] until the thread commits or
//! is squashed. This is the substrate on which both the Spice-transformed
//! code and the baseline TLS schemes are timed (paper §5).
//!
//! **Simulated time advances by events, in `(cycle, core index)` order.** An
//! event is one core's issue group. Each core has a *wake key* — the first
//! cycle its own state lets it step: its `busy_until` horizon, the arrival
//! of the front message on the channel its blocked receive recorded, or
//! never (finished, trapped, no thread, or nothing in flight for it; only
//! another core's event can rouse it). [`Machine::run`] keeps the keys in a
//! small array, steps the core with the smallest `(key, index)`, lets it
//! issue group after group while its key stays the smallest — a sequential
//! run is the degenerate case where every other key is never — and then
//! updates that key alone. A send re-derives the keys of parked receivers,
//! and resteers queued during cycle `t` are delivered once the minimum has
//! moved past `t`: after every core's step at `t`, exactly where the
//! cycle-stepped machine delivers them. Every step, message, store and
//! conflict check therefore happens in the order [`Machine::step_cycle`]
//! would produce, and the run is **bit-identical** to it — same
//! [`RunSummary`], memory and trace.
//!
//! **Stall, idle and receive-stall counters are settled, never ticked.**
//! Between its own steps a core's state is constant, so what each elapsed
//! cycle would have added to its report is a function of that state;
//! `CoreState::settle` credits the whole interval at the moments the state
//! can change (the core's own step, a resteer delivered to it) and whenever
//! the machine is observed (return, pause, checkpoint). What may never be
//! skipped is a step itself: a key is never later than the first cycle at
//! which the cycle-stepped core would do anything but bump a counter.
//! Every piece of scheduler state is derived from [`Machine`] and its cores
//! — the keys, and the cycle pending resteers were queued at — so a snapshot
//! taken between any two events resumes bit-identically. See `DESIGN.md`,
//! "harness performance architecture".
//!
//! This file is the cores, the two ports a step runs against, the issue
//! group and the event loop. The rest of the machine sits beside it:
//! `channel.rs` ([`ChannelNet`]), `conflict.rs` (the `spec.check` detection
//! sets), `observe.rs` (the one observer the issue group reports to: tracing
//! with squash forensics, and [`CycleAttribution`]) and `snapshot.rs`
//! ([`MachineSnapshot`], [`Machine::resume_from`], [`Machine::run_until`]).

use std::sync::Arc;

use serde::{Deserialize, Serialize};

use spice_ir::interp::{FlatMemory, MemPort, StepEvent, SysPort, ThreadState, ThreadStatus};
use spice_ir::{BlockId, DecodedProgram, FuncId, InstClass, Program, TrapKind};

use crate::cache::{HitLevel, MemAccessStats, MemoryHierarchy};
use crate::config::MachineConfig;
use crate::conflict::ConflictTracker;
use crate::observe::{MemAccess, Observer, SysOp};
use crate::snapshot::SnapshotRecorder;
use crate::specbuf::SpecBuffer;

pub use crate::channel::ChannelNet;
pub use crate::observe::CycleAttribution;
pub use crate::snapshot::MachineSnapshot;

/// Why a core spent a cycle without retiring an instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum StallKind {
    None,
    Memory,
    Recv,
}

/// Per-core statistics of one run.
#[derive(Debug, Clone, Default, Serialize, Deserialize, PartialEq, Eq)]
pub struct CoreReport {
    /// Instructions retired.
    pub retired: u64,
    /// Cycles spent waiting on the memory hierarchy.
    pub mem_stall_cycles: u64,
    /// Cycles spent waiting on an empty channel.
    pub recv_stall_cycles: u64,
    /// Cycles with no thread or a finished thread.
    pub idle_cycles: u64,
    /// Cycle at which the thread finished or halted (if it did).
    pub finished_at: Option<u64>,
    /// Return value of the thread's outermost function, if it returned one.
    pub return_value: Option<i64>,
    /// Whether the thread ended in a trapped state.
    pub trapped: Option<TrapKind>,
    /// Speculative commits executed.
    pub spec_commits: u64,
    /// Speculative aborts (squashes) executed.
    pub spec_aborts: u64,
    /// Cross-chunk dependence conflicts this core's read set was found
    /// guilty of by a `spec.check` during the last invocation (0 or 1 per
    /// invocation; the check verdict is sticky per epoch).
    pub spec_conflicts: u64,
    /// Smallest conflicting word address behind `spec_conflicts`, if any.
    pub spec_conflict_addr: Option<i64>,
    /// Loads/stores classified by the level that served them.
    pub mem: MemAccessStats,
    /// Retired-instruction counts by class.
    pub retired_by_class: Vec<(String, u64)>,
}

/// Outcome of [`Machine::run`].
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq, Eq)]
pub struct RunSummary {
    /// Total simulated cycles.
    pub cycles: u64,
    /// Per-core reports.
    pub cores: Vec<CoreReport>,
}

impl RunSummary {
    /// Total instructions retired across all cores.
    #[must_use]
    pub fn total_retired(&self) -> u64 {
        self.cores.iter().map(|c| c.retired).sum()
    }
}

/// Reasons a simulation can fail.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// No core can ever make progress again.
    Deadlock {
        /// Cycle at which the deadlock was detected.
        cycle: u64,
    },
    /// The configured cycle budget was exhausted.
    MaxCyclesExceeded {
        /// The budget that was exceeded.
        limit: u64,
    },
    /// Execution ended with at least one thread trapped and never recovered.
    UnrecoveredTrap {
        /// Core whose thread trapped.
        core: usize,
        /// The trap.
        trap: TrapKind,
    },
    /// A thread was spawned on a core that does not exist.
    NoSuchCore {
        /// The requested core index.
        core: usize,
    },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Deadlock { cycle } => write!(f, "deadlock detected at cycle {cycle}"),
            SimError::MaxCyclesExceeded { limit } => {
                write!(f, "simulation exceeded {limit} cycles")
            }
            SimError::UnrecoveredTrap { core, trap } => {
                write!(
                    f,
                    "thread on core {core} trapped and was never recovered: {trap}"
                )
            }
            SimError::NoSuchCore { core } => write!(f, "no such core: {core}"),
        }
    }
}

impl std::error::Error for SimError {}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SpecAction {
    Begin,
    Commit,
    Abort,
}

/// What ended one core's issue group for the current cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CoreCycleEnd {
    /// Instructions retired; the core is busy until its new horizon.
    Ran,
    /// As [`CoreCycleEnd::Ran`], and the group ended in a send or a resteer:
    /// the one way a step changes when *another* core can next do something.
    Signalled,
    /// The core blocked on an empty channel.
    Blocked,
    /// The thread finished or halted.
    Done,
    /// The thread trapped.
    Trapped,
}

struct CoreMemPort<'a> {
    mem: &'a mut FlatMemory,
    hier: &'a mut MemoryHierarchy,
    spec: &'a mut SpecBuffer,
    conflicts: &'a ConflictTracker,
    core: usize,
    latency: u64,
    /// The access the current step made, for whoever observes the step.
    accessed: Option<MemAccess>,
}

impl MemPort for CoreMemPort<'_> {
    #[inline]
    fn load(&mut self, addr: i64) -> Result<i64, TrapKind> {
        let (lat, level) = self.hier.load(self.core, addr);
        self.latency += lat;
        let mut tracked = false;
        let read = match self.spec.load(addr) {
            Some(v) => Ok(v),
            None => {
                // A speculative load that missed the store buffer may observe
                // a stale word: it joins the conflict detector's read set.
                tracked = self.spec.is_active() && self.conflicts.record_read(self.core, addr);
                self.mem.read(addr)
            }
        };
        self.accessed = Some(MemAccess {
            addr,
            value: read.unwrap_or(0),
            is_store: false,
            missed: level == HitLevel::Memory,
            tracked,
        });
        read
    }

    #[inline]
    fn store(&mut self, addr: i64, value: i64) -> Result<(), TrapKind> {
        let (lat, level) = self.hier.store(self.core, addr);
        self.latency += lat;
        let speculative = self.spec.is_active();
        // Non-speculative stores are architectural immediately; they are the
        // epoch's committed-write set as far as later chunks are concerned
        // (the main thread's chunk 0 in a Spice loop).
        let tracked = !speculative && self.conflicts.record_write(addr);
        self.accessed = Some(MemAccess {
            addr,
            value,
            is_store: true,
            missed: level == HitLevel::Memory,
            tracked,
        });
        if speculative {
            // Validate the address eagerly so that wild speculative stores
            // trap like real ones would (the squash path recovers them).
            if addr < 0 || addr as usize >= self.mem.size() {
                return Err(TrapKind::OutOfBoundsAccess { addr });
            }
            self.spec.store(addr, value);
            Ok(())
        } else {
            self.mem.write(addr, value)
        }
    }

    #[inline]
    fn alloc(&mut self, words: i64) -> Result<i64, TrapKind> {
        self.mem.alloc(words)
    }
}

struct CoreSysPort<'a> {
    channels: &'a mut ChannelNet,
    resteers: &'a mut Vec<(i64, BlockId)>,
    conflicts: &'a ConflictTracker,
    /// When a message sent this cycle becomes visible to its receiver.
    arrival: u64,
    /// The cycle being stepped.
    cycle: u64,
    spec_action: Option<SpecAction>,
    /// The channel of the last `try_recv` that came back empty — recorded so
    /// a blocking receive advertises which arrival would wake it (the
    /// event loop's wake key for a blocked core).
    recv_failed_chan: Option<i64>,
    /// What the current step sent, received or conflict-checked, for whoever
    /// observes the step.
    op: Option<SysOp>,
}

impl SysPort for CoreSysPort<'_> {
    #[inline]
    fn send(&mut self, chan: i64, value: i64) {
        self.op = Some(SysOp::Sent { chan, value });
        self.channels.send(chan, value, self.arrival);
    }

    #[inline]
    fn try_recv(&mut self, chan: i64) -> Option<i64> {
        let got = self.channels.try_recv(chan, self.cycle);
        match got {
            None => self.recv_failed_chan = Some(chan),
            Some(value) => self.op = Some(SysOp::Received { chan, value }),
        }
        got
    }

    #[inline]
    fn spec_begin(&mut self) {
        self.spec_action = Some(SpecAction::Begin);
    }

    #[inline]
    fn spec_commit(&mut self) {
        self.spec_action = Some(SpecAction::Commit);
    }

    #[inline]
    fn spec_abort(&mut self) {
        self.spec_action = Some(SpecAction::Abort);
    }

    #[inline]
    fn spec_conflict(&mut self, queried: i64) -> i64 {
        let verdict = self.conflicts.query(queried);
        self.op = Some(SysOp::Checked { queried, verdict });
        verdict
    }

    #[inline]
    fn resteer(&mut self, core: i64, target: BlockId) {
        self.resteers.push((core, target));
    }
}

/// A wake key no core ever reaches: finished, trapped and threadless cores,
/// and receives nothing is in flight for, wait on another core's event.
const NEVER: u64 = u64::MAX;

#[derive(Debug, Clone)]
pub(crate) struct CoreState {
    thread: Option<ThreadState>,
    spec: SpecBuffer,
    busy_until: u64,
    stall: StallKind,
    blocked: bool,
    /// The channel the thread's pending `Recv` found empty, while `blocked`:
    /// the core's wake-up event is the next arrival on this channel.
    waiting_chan: Option<i64>,
    /// First cycle whose stall / idle tick is not yet in `report`: one past
    /// the core's last own step, or as far as [`CoreState::settle`] has
    /// since credited. Never later than the core's next step.
    accounted: u64,
    report: CoreReport,
    /// Retired-instruction counts, dense by [`InstClass::index`].
    class_counts: [u64; InstClass::COUNT],
    done: bool,
}

impl CoreState {
    fn new() -> Self {
        CoreState {
            thread: None,
            spec: SpecBuffer::new(),
            busy_until: 0,
            stall: StallKind::None,
            blocked: false,
            waiting_chan: None,
            accounted: 0,
            report: CoreReport::default(),
            class_counts: [0; InstClass::COUNT],
            done: false,
        }
    }

    /// Credits the cycles `[accounted, upto)` to the report. The core did
    /// not step in any of them, so each would have ticked the one counter
    /// its state names: idle without a live thread, else the kind of its
    /// last stall — `Recv` while blocked (every cycle a failed retry),
    /// `None` once trapped, the access's kind while busy. That state only
    /// changes at the core's own step or at a resteer delivered to it; both
    /// settle first. Crediting is linear, so settling early (a pause, a
    /// snapshot) never changes a total.
    pub(crate) fn settle(&mut self, upto: u64) {
        let dt = upto.saturating_sub(self.accounted);
        if dt == 0 {
            return;
        }
        self.accounted = upto;
        if self.thread.is_none() || self.done {
            self.report.idle_cycles += dt;
        } else {
            match self.stall {
                StallKind::Memory => self.report.mem_stall_cycles += dt,
                StallKind::Recv => self.report.recv_stall_cycles += dt,
                StallKind::None => {}
            }
        }
    }

    /// The first cycle this core's own state lets it step: its horizon, or
    /// for a blocked receive the arrival of the front message on its channel
    /// (send times are monotone per channel, and a retry earlier than the
    /// true wake-up is only a failed retry the settlement already counts).
    /// [`NEVER`] when only another core's event can rouse it.
    fn wake(&self, channels: &ChannelNet) -> u64 {
        let live = self
            .thread
            .as_ref()
            .is_some_and(|t| !self.done && !matches!(t.status(), ThreadStatus::Trapped(_)));
        let ready = if !live {
            None
        } else if self.blocked {
            self.waiting_chan.and_then(|ch| channels.earliest_on(ch))
        } else {
            Some(self.busy_until)
        };
        ready.map_or(NEVER, |at| at.max(self.accounted))
    }
}

/// Everything the cores share — one pointer next to the stepping core's
/// [`CoreState`], so switching cores re-borrows nothing.
#[derive(Debug)]
pub(crate) struct Shared {
    pub(crate) config: MachineConfig,
    /// The pre-decoded execution form of the program, built once at load.
    pub(crate) decoded: Arc<DecodedProgram>,
    pub(crate) mem: FlatMemory,
    pub(crate) hier: MemoryHierarchy,
    pub(crate) channels: ChannelNet,
    /// Resteers queued during cycle [`Machine::cycle`], delivered once every
    /// core's step of that cycle has run.
    pub(crate) resteer_requests: Vec<(i64, BlockId)>,
    pub(crate) conflicts: ConflictTracker,
    /// Tracing, squash forensics and cycle attribution, when any is on —
    /// the one thing `issue_group` asks about who is watching.
    pub(crate) observer: Option<Box<Observer>>,
}

impl Shared {
    /// Steps core `i` at `at`, its wake key, and keeps issuing group after
    /// group while its new horizon stays below `stop` — the event loop's
    /// inner loop, kept out of line so the scheduler around it stays in
    /// registers. Returns the cycle of the last group and what ended it.
    #[inline(never)]
    fn issue_groups(
        &mut self,
        core: &mut CoreState,
        i: usize,
        at: u64,
        stop: u64,
    ) -> (u64, CoreCycleEnd) {
        let mut now = at;
        loop {
            let end = self.issue_group(core, i, now);
            if end != CoreCycleEnd::Ran || core.busy_until >= stop {
                return (now, end);
            }
            now = core.busy_until;
        }
    }

    /// Executes one cycle's issue group on core `i` at `now`: up to
    /// `issue_width` co-issuable ALU operations (Table 1: 6-issue), ended by
    /// any memory access, long-latency operation, communication or control
    /// transfer. Returns what ended the group, which is all the event loop
    /// needs to re-key the core.
    #[inline]
    fn issue_group(&mut self, core: &mut CoreState, i: usize, now: u64) -> CoreCycleEnd {
        core.settle(now);
        core.accounted = now + 1;
        let Shared {
            config,
            decoded,
            mem,
            hier,
            channels,
            resteer_requests,
            conflicts,
            observer,
        } = self;
        let (conflicts, decoded): (&ConflictTracker, &DecodedProgram) = (conflicts, decoded);
        let mut observer = observer.as_deref_mut();
        let issue_width = config.core.issue_width.max(1);
        let thread = core.thread.as_mut().expect("core has a runnable thread");
        let mut mem_port = CoreMemPort {
            mem,
            hier,
            spec: &mut core.spec,
            conflicts,
            core: i,
            latency: 0,
            accessed: None,
        };
        let mut sys_port = CoreSysPort {
            channels,
            resteers: resteer_requests,
            conflicts,
            arrival: now + config.inter_core_latency,
            cycle: now,
            spec_action: None,
            recv_failed_chan: None,
            op: None,
        };
        let mut issued_this_cycle = 0u64;
        // Source location of the instruction about to retire, captured only
        // when someone observes: the group's whole busy interval is charged
        // to the location of the instruction that *ends* the group.
        let mut src = (FuncId(0), BlockId(0));
        let mut group_retired = 0u32;
        loop {
            mem_port.latency = 0;
            if observer.is_some() {
                src = (thread.current_func(), thread.current_block());
            }
            let result = thread.step(decoded, &mut mem_port, &mut sys_port);
            if let Some(o) = observer.as_deref_mut() {
                let seen = (sys_port.op.take(), mem_port.accessed.take());
                let retired = matches!(result, Ok(StepEvent::Executed(_)));
                o.step(conflicts, (now, i, src), seen, retired);
            }

            match result {
                Ok(StepEvent::Executed(info)) => {
                    let class = info.class();
                    core.report.retired += 1;
                    group_retired += 1;
                    core.class_counts[class.index()] += 1;
                    let co_issuable = matches!(class, InstClass::IntAlu | InstClass::Other)
                        && mem_port.latency == 0;
                    if co_issuable {
                        issued_this_cycle += 1;
                        if issued_this_cycle < issue_width {
                            // Keep filling this cycle's issue group. (ALU
                            // operations never carry a spec action, so the
                            // horizon/stall writes are deferred to the
                            // instruction that ends the group — they would
                            // only be overwritten.)
                            continue;
                        }
                    }
                    let mem_latency = mem_port.latency;
                    let cost = config.core.latency_of(class).max(1) + mem_latency;
                    core.busy_until = now + cost;
                    core.stall = if mem_latency > 0 {
                        StallKind::Memory
                    } else {
                        StallKind::None
                    };
                    core.blocked = false;
                    core.waiting_chan = None;
                    let action = sys_port.spec_action.take();
                    let (mut drained, mut writes) = (0, Vec::new());
                    match action {
                        Some(SpecAction::Begin) => {
                            mem_port.spec.begin();
                            conflicts.start_chunk();
                        }
                        Some(SpecAction::Commit) => {
                            writes = mem_port.spec.take_commit();
                            core.report.spec_commits += 1;
                            drained = writes.len() as u64;
                            let mut extra = 0;
                            // Committed writes drain through the hierarchy
                            // like ordinary stores, and join the epoch's
                            // committed-write set for later chunks' conflict
                            // checks; `writes` keeps the ones the set took.
                            writes.retain(|&(addr, value)| {
                                let (lat, _) = mem_port.hier.store(i, addr);
                                extra += lat.min(config.l2.hit_latency);
                                let _ = mem_port.mem.write(addr, value);
                                conflicts.record_write(addr)
                            });
                            core.busy_until += extra;
                        }
                        Some(SpecAction::Abort) => {
                            mem_port.spec.abort();
                            core.report.spec_aborts += 1;
                        }
                        None => {}
                    }
                    if let Some(o) = observer {
                        let group = (group_retired, core.busy_until - now);
                        o.group_end(conflicts, (now, i, src), group, action, (drained, &writes));
                    }
                    // After the observer: a squash is explained from the
                    // read set this consumes.
                    if matches!(action, Some(SpecAction::Commit | SpecAction::Abort)) {
                        conflicts.end_chunk(i);
                    }
                    return if matches!(class, InstClass::Send | InstClass::Resteer) {
                        CoreCycleEnd::Signalled
                    } else {
                        CoreCycleEnd::Ran
                    };
                }
                Ok(StepEvent::Blocked) => {
                    core.busy_until = now + 1;
                    core.stall = StallKind::Recv;
                    core.blocked = true;
                    core.waiting_chan = sys_port.recv_failed_chan;
                    core.report.recv_stall_cycles += 1;
                    return CoreCycleEnd::Blocked;
                }
                Ok(StepEvent::Halted) | Ok(StepEvent::Finished(_)) => {
                    core.done = true;
                    core.blocked = false;
                    core.report.finished_at = Some(now);
                    if let Ok(StepEvent::Finished(v)) = result {
                        core.report.return_value = v;
                    }
                    return CoreCycleEnd::Done;
                }
                Err(_trap) => {
                    // The thread stays trapped until (possibly) resteered by
                    // another thread; with no stall kind recorded, the wait
                    // settles to nothing.
                    core.busy_until = now + 1;
                    core.stall = StallKind::None;
                    core.blocked = false;
                    return CoreCycleEnd::Trapped;
                }
            }
        }
    }
}

/// The multi-core machine.
///
/// The program and its decoded execution form live behind [`Arc`]s: they are
/// immutable once built, so a sweep running the same workload under many
/// configurations decodes once and every machine shares the result
/// ([`Machine::from_shared`]). Per-machine state — memory, caches, cores,
/// conflict sets — stays owned and private.
#[derive(Debug)]
pub struct Machine {
    pub(crate) program: Arc<Program>,
    pub(crate) shared: Shared,
    pub(crate) cores: Vec<CoreState>,
    /// The cycle of the most recent event, or the first unprocessed cycle
    /// when none has run yet. Outside [`Machine::run`] every core is
    /// settled up to it.
    pub(crate) cycle: u64,
    pub(crate) snapshots: Option<SnapshotRecorder>,
}

impl Machine {
    /// Creates a machine loaded with `program`: globals are materialized,
    /// the heap sized from the configuration, and the program decoded once
    /// into its dense execution form.
    #[must_use]
    pub fn new(config: MachineConfig, program: Program) -> Self {
        let decoded = Arc::new(DecodedProgram::new(&program));
        Machine::from_shared(config, Arc::new(program), decoded)
    }

    /// Creates a machine from already-shared immutable state: the program
    /// and its decoded form. This is the decode-once path a parallel sweep
    /// uses — N machines over one `Arc<DecodedProgram>` instead of N
    /// decodes. Only the memory is built per machine, and that costs the
    /// global initializers, not `config.heap_words` (the extent rule in
    /// [`FlatMemory`]'s doc).
    #[must_use]
    pub fn from_shared(
        config: MachineConfig,
        program: Arc<Program>,
        decoded: Arc<DecodedProgram>,
    ) -> Self {
        let mem = FlatMemory::for_program(&program, config.heap_words);
        let hier = MemoryHierarchy::new(&config);
        let cores: Vec<CoreState> = (0..config.cores).map(|_| CoreState::new()).collect();
        let conflicts = ConflictTracker::new(
            config.cores,
            config.conflict_detection,
            config.conflict_granularity_log2,
        );
        Machine {
            program,
            shared: Shared {
                config,
                decoded,
                mem,
                hier,
                channels: ChannelNet::default(),
                resteer_requests: Vec::new(),
                conflicts,
                observer: None,
            },
            cores,
            cycle: 0,
            snapshots: None,
        }
    }

    /// The machine configuration.
    #[must_use]
    pub fn config(&self) -> &MachineConfig {
        &self.shared.config
    }

    /// The loaded program.
    #[must_use]
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// Shared memory (read access, e.g. for checking results).
    #[must_use]
    pub fn mem(&self) -> &FlatMemory {
        &self.shared.mem
    }

    /// Shared memory (write access, e.g. for building data structures before
    /// a run or mutating them between loop invocations).
    pub fn mem_mut(&mut self) -> &mut FlatMemory {
        &mut self.shared.mem
    }

    /// Current simulated cycle.
    #[must_use]
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Excludes the half-open address range `[lo, hi)` from conflict
    /// detection. Used for the value predictor's shared arrays: their
    /// accesses are ordered by the `new_invocation` token protocol, so a
    /// conflict on them is a false positive by construction (the paper's
    /// hardware watches program data, not the software predictor's state).
    pub fn set_conflict_exempt(&mut self, lo: i64, hi: i64) {
        self.shared.conflicts.set_exempt(lo, hi);
    }

    /// Human-readable dump of per-core scheduler state at the current cycle
    /// (the `inspect` CLI's `break` view).
    #[must_use]
    pub fn state_dump(&self) -> String {
        let mut out = format!("cycle {}\n", self.cycle);
        for (i, c) in self.cores.iter().enumerate() {
            let status = match &c.thread {
                None => "idle (no thread)".to_string(),
                Some(t) => match t.status() {
                    ThreadStatus::Trapped(k) => format!("trapped: {k}"),
                    _ if c.done => "done".to_string(),
                    _ if c.blocked => {
                        format!("blocked on chan {:?}", c.waiting_chan)
                    }
                    _ => format!("runnable at {:?}:{:?}", t.current_func(), t.current_block()),
                },
            };
            out.push_str(&format!(
                "core {i}: {status}; busy_until {}, retired {}, spec {}\n",
                c.busy_until,
                c.report.retired,
                if c.spec.is_active() { "active" } else { "off" },
            ));
        }
        out
    }

    /// Places a new thread on `core`, starting at `func` with `args`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::NoSuchCore`] if the core index is out of range.
    pub fn spawn(&mut self, core: usize, func: FuncId, args: &[i64]) -> Result<(), SimError> {
        if core >= self.cores.len() {
            return Err(SimError::NoSuchCore { core });
        }
        let state = &mut self.cores[core];
        state.thread = Some(ThreadState::new(&self.shared.decoded, func, args));
        state.busy_until = self.cycle;
        state.accounted = self.cycle;
        state.done = false;
        state.blocked = false;
        state.waiting_chan = None;
        state.report = CoreReport::default();
        state.class_counts = [0; InstClass::COUNT];
        Ok(())
    }

    /// Runs one sequential invocation of `func` on core 0 from a clean
    /// per-invocation state (threads cleared, clock at zero) — the
    /// single-threaded baseline every speedup in the paper is measured
    /// against. The return value is [`Machine::return_value`]`(0)`.
    ///
    /// # Errors
    ///
    /// Returns the [`SimError`] the simulation ended with.
    pub fn run_sequential(&mut self, func: FuncId, args: &[i64]) -> Result<RunSummary, SimError> {
        self.clear_threads();
        self.reset_cycle_counter();
        self.spawn(0, func, args)?;
        self.run()
    }

    /// Removes every thread and clears channels, keeping memory and caches.
    /// Used by multi-invocation drivers between loop invocations.
    pub fn clear_threads(&mut self) {
        for c in &mut self.cores {
            c.thread = None;
            c.spec.reset();
            c.busy_until = self.cycle;
            c.done = false;
            c.blocked = false;
            c.waiting_chan = None;
        }
        self.shared.channels.clear();
        self.shared.resteer_requests.clear();
        // A fresh set of threads is a fresh loop invocation: the conflict
        // epoch (committed writes, read sets, verdicts) starts over.
        self.shared.conflicts.clear_epoch();
        if let Some(o) = self.shared.observer.as_deref_mut() {
            o.clear_epoch();
        }
    }

    /// Resets the cycle counter to zero (per-invocation timing).
    pub fn reset_cycle_counter(&mut self) {
        self.cycle = 0;
        for c in &mut self.cores {
            c.busy_until = 0;
            c.accounted = 0;
        }
        // Re-arm the periodic snapshot recorder onto the new clock: one
        // checkpoint before the invocation's first event (cycle 0), then
        // every `interval` cycles. Without this the mark would drift
        // past every later invocation's per-invocation clock and recording
        // would stop after the first invocation.
        if let Some(s) = self.snapshots.as_mut() {
            s.next_at = 0;
        }
    }

    /// Advances the machine by one cycle: the cycle-stepped oracle the event
    /// loop in [`Machine::run`] is pinned against. Every core is visited in
    /// index order and either steps or has this one cycle settled.
    pub fn step_cycle(&mut self) {
        let now = self.cycle;
        for (i, c) in self.cores.iter_mut().enumerate() {
            if c.thread.is_some() && !c.done && c.busy_until <= now {
                let _ = self.shared.issue_group(c, i, now);
            } else {
                c.settle(now + 1);
            }
        }
        self.deliver_resteers();
        self.cycle += 1;
    }

    /// Applies the resteers queued during cycle `self.cycle`, after every
    /// core's step of that cycle (end-of-cycle semantics). The target earns
    /// its tick for the delivery cycle under its old state first.
    #[cold]
    fn deliver_resteers(&mut self) {
        let ready = self.cycle + self.shared.config.inter_core_latency;
        for (core, target) in self.shared.resteer_requests.drain(..) {
            let target_core = usize::try_from(core).ok();
            let Some(c) = target_core.and_then(|i| self.cores.get_mut(i)) else {
                continue;
            };
            c.settle(self.cycle + 1);
            if let Some(t) = c.thread.as_mut() {
                t.resteer_to(target);
                c.done = false;
                c.blocked = false;
                c.waiting_chan = None;
                c.busy_until = ready;
            }
        }
    }

    /// Re-derives every core's wake key from machine state alone — at entry
    /// to the event loop and after a resteer delivery; in between, a step
    /// re-keys only what it touched.
    fn wake_keys(&self, keys: &mut [u64]) {
        for (key, c) in keys.iter_mut().zip(&self.cores) {
            *key = c.wake(&self.shared.channels);
        }
    }

    /// Nothing is left that the cores' own state schedules. Each core is
    /// accounted one past its last event, so the run ends the cycle after
    /// the latest of them: `Ok` when every thread finished, the final wedge
    /// when nothing is in flight either (a trap, or a pure deadlock), and
    /// `None` when messages nobody is positioned to receive only let the
    /// machine idle forward to its budget.
    #[cold]
    fn quiesce(&mut self, limit: u64) -> Option<Result<(), SimError>> {
        let last = self.cores.iter().map(|c| c.accounted).max();
        self.cycle = self.cycle.max(last.unwrap_or(0));
        if self.cores.iter().all(|c| c.thread.is_none() || c.done) {
            return Some(Ok(()));
        }
        if self.cycle >= limit || self.shared.channels.pending() > 0 {
            return None;
        }
        let trapped =
            self.cores
                .iter()
                .enumerate()
                .find_map(|(core, c)| match c.thread.as_ref()?.status() {
                    ThreadStatus::Trapped(trap) if !c.done => Some((core, trap)),
                    _ => None,
                });
        Some(Err(match trapped {
            Some((core, trap)) => SimError::UnrecoveredTrap { core, trap },
            None => SimError::Deadlock { cycle: self.cycle },
        }))
    }

    /// Runs until every spawned thread has finished or halted, processing
    /// core steps in `(wake cycle, core index)` order (see the module
    /// documentation; the result is bit-identical to stepping every cycle).
    ///
    /// # Errors
    ///
    /// * [`SimError::Deadlock`] if no thread can ever make progress again
    ///   (e.g. everyone blocked on empty channels),
    /// * [`SimError::UnrecoveredTrap`] if execution ends with a trapped
    ///   thread that was never resteered,
    /// * [`SimError::MaxCyclesExceeded`] if the configured cycle budget runs
    ///   out.
    pub fn run(&mut self) -> Result<RunSummary, SimError> {
        let limit = self.shared.config.max_cycles;
        let mut inline = [NEVER; 8];
        let mut spilled = Vec::new();
        let keys: &mut [u64] = match inline.get_mut(..self.cores.len()) {
            Some(keys) => keys,
            None => {
                spilled.resize(self.cores.len(), NEVER);
                &mut spilled
            }
        };
        self.wake_keys(keys);
        let mut mark = self.snapshots.as_ref().map_or(NEVER, |s| s.next_at);
        let outcome = loop {
            // The next event is the smallest key, lowest core index on a
            // tie; that core may then run ahead of the runner-up's key. (On
            // a tie with the runner-up the scan decides again.)
            let horizon = limit.min(mark);
            let (mut at, mut i, mut stop) = (NEVER, 0, horizon);
            for (k, &key) in keys.iter().enumerate() {
                if key < at {
                    (stop, at, i) = (stop.min(at), key, k);
                } else {
                    stop = stop.min(key);
                }
            }
            if at > self.cycle && !self.shared.resteer_requests.is_empty() {
                // Every step of the cycle that queued them has run.
                self.deliver_resteers();
                self.wake_keys(keys);
                continue;
            }
            if at >= horizon {
                // Off the hot path: quiescence, the budget, or a checkpoint.
                if at == NEVER {
                    if let Some(outcome) = self.quiesce(limit) {
                        break outcome;
                    }
                }
                if at >= limit {
                    self.cycle = self.cycle.max(limit);
                    break Err(SimError::MaxCyclesExceeded { limit });
                }
                self.cycle = at;
                mark = self.checkpoint();
                continue;
            }
            let core = &mut self.cores[i];
            let (now, end) = self.shared.issue_groups(core, i, at, stop);
            self.cycle = now;
            keys[i] = match end {
                CoreCycleEnd::Ran | CoreCycleEnd::Signalled => core.busy_until,
                _ => core.wake(&self.shared.channels),
            };
            if end == CoreCycleEnd::Signalled {
                // A send may have given a parked receive its arrival. Cores
                // below `i` already retried (and failed) this cycle.
                for (j, c) in self.cores.iter_mut().enumerate() {
                    if keys[j] == NEVER && c.blocked {
                        c.settle(now + u64::from(j < i));
                        keys[j] = c.wake(&self.shared.channels);
                    }
                }
            }
        };
        for c in &mut self.cores {
            c.settle(self.cycle);
        }
        outcome.map(|()| self.summary())
    }

    /// Builds the per-core report without running (every core is settled up
    /// to the current cycle whenever the machine is not inside `run`).
    #[must_use]
    pub fn summary(&self) -> RunSummary {
        let cores = self
            .cores
            .iter()
            .enumerate()
            .map(|(i, c)| {
                let mut report = c.report.clone();
                report.mem = self.shared.hier.stats(i);
                report.spec_conflict_addr = self.shared.conflicts.verdict(i);
                report.spec_conflicts = u64::from(report.spec_conflict_addr.is_some());
                report.trapped = c.thread.as_ref().and_then(|t| match t.status() {
                    ThreadStatus::Trapped(k) => Some(k),
                    _ => None,
                });
                let mut classes: Vec<(String, u64)> = InstClass::ALL
                    .iter()
                    .map(|k| (format!("{k:?}"), c.class_counts[k.index()]))
                    .filter(|&(_, v)| v > 0)
                    .collect();
                classes.sort();
                report.retired_by_class = classes;
                report
            })
            .collect();
        RunSummary {
            cycles: self.cycle,
            cores,
        }
    }

    /// Return value of the thread on `core`, if it finished with one.
    #[must_use]
    pub fn return_value(&self, core: usize) -> Option<i64> {
        self.cores.get(core).and_then(|c| c.report.return_value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spice_ir::builder::FunctionBuilder;
    use spice_ir::{BinOp, Inst, MisspeculationCause, Operand, TraceEvent};

    fn tiny(cores: usize) -> MachineConfig {
        MachineConfig::test_tiny(cores)
    }

    #[test]
    fn single_thread_program_runs_to_completion() {
        let mut b = FunctionBuilder::new("main");
        let x = b.binop(BinOp::Add, 40i64, 2i64);
        b.ret(Some(Operand::Reg(x)));
        let mut p = Program::new();
        let f = p.add_func(b.finish());
        let mut m = Machine::new(tiny(1), p);
        m.spawn(0, f, &[]).unwrap();
        let summary = m.run().unwrap();
        assert_eq!(m.return_value(0), Some(42));
        assert!(summary.cycles >= 1);
        assert_eq!(summary.cores[0].retired, 1);
    }

    #[test]
    fn memory_latency_is_charged() {
        // Two loads of the same address: first misses everywhere, second hits L1.
        let mut b = FunctionBuilder::new("loads");
        let a = b.load(2000i64, 0);
        let c = b.load(2000i64, 0);
        let s = b.binop(BinOp::Add, a, c);
        b.ret(Some(Operand::Reg(s)));
        let mut p = Program::new();
        let f = p.add_func(b.finish());
        let cfg = tiny(1);
        let expected_min =
            cfg.l1d.hit_latency + cfg.l2.hit_latency + cfg.l3.hit_latency + cfg.memory_latency;
        let mut m = Machine::new(cfg, p);
        m.spawn(0, f, &[]).unwrap();
        let summary = m.run().unwrap();
        assert!(summary.cycles > expected_min);
        assert_eq!(summary.cores[0].mem.loads, 2);
        assert_eq!(summary.cores[0].mem.l1_hits, 1);
    }

    #[test]
    fn two_threads_communicate_with_latency() {
        // Thread 0 sends 7 on channel 0; thread 1 receives and returns it.
        let mut p = Program::new();
        let mut sender = FunctionBuilder::new("sender");
        sender.send(0i64, 7i64);
        sender.ret(None);
        let sf = p.add_func(sender.finish());

        let mut receiver = FunctionBuilder::new("receiver");
        let v = receiver.recv(0i64);
        receiver.ret(Some(Operand::Reg(v)));
        let rf = p.add_func(receiver.finish());

        let cfg = tiny(2);
        let comm = cfg.inter_core_latency;
        let mut m = Machine::new(cfg, p);
        m.spawn(0, sf, &[]).unwrap();
        m.spawn(1, rf, &[]).unwrap();
        let summary = m.run().unwrap();
        assert_eq!(m.return_value(1), Some(7));
        // The receiver cannot finish before the message's flight time.
        assert!(summary.cores[1].finished_at.unwrap() >= comm);
        assert!(summary.cores[1].recv_stall_cycles > 0);
    }

    #[test]
    fn speculative_stores_commit_or_vanish() {
        // Speculative thread stores 5 to @g, then either commits or aborts
        // based on its argument.
        let mut p = Program::new();
        let g = p.add_global("g", 1);
        let mut b = FunctionBuilder::new("spec");
        let do_commit = b.param();
        let commit_bb = b.new_block();
        let abort_bb = b.new_block();
        let done = b.new_block();
        b.push(Inst::SpecBegin);
        b.store(5i64, g, 0);
        b.cond_br(do_commit, commit_bb, abort_bb);
        b.switch_to(commit_bb);
        b.push(Inst::SpecCommit);
        b.br(done);
        b.switch_to(abort_bb);
        b.push(Inst::SpecAbort);
        b.br(done);
        b.switch_to(done);
        b.ret(None);
        let f = p.add_func(b.finish());

        // Commit case.
        let mut m = Machine::new(tiny(1), p.clone());
        m.spawn(0, f, &[1]).unwrap();
        let s = m.run().unwrap();
        assert_eq!(m.mem().read(g).unwrap(), 5);
        assert_eq!(s.cores[0].spec_commits, 1);

        // Abort case.
        let mut m = Machine::new(tiny(1), p);
        m.spawn(0, f, &[0]).unwrap();
        let s = m.run().unwrap();
        assert_eq!(m.mem().read(g).unwrap(), 0);
        assert_eq!(s.cores[0].spec_aborts, 1);
    }

    #[test]
    fn speculative_stores_invisible_to_other_core_until_commit() {
        // Core 0: spec-store 9 to @flag, wait for token, commit, send done.
        // Core 1: read @flag before and after.
        let mut p = Program::new();
        let flag = p.add_global("flag", 1);
        let result = p.add_global("result", 2);

        let mut w = FunctionBuilder::new("writer");
        w.push(Inst::SpecBegin);
        w.store(9i64, flag, 0);
        // Tell the reader the speculative store happened.
        w.send(0i64, 1i64);
        // Wait for permission to commit.
        let _ = w.recv(1i64);
        w.push(Inst::SpecCommit);
        w.send(2i64, 1i64);
        w.ret(None);
        let wf = p.add_func(w.finish());

        let mut r = FunctionBuilder::new("reader");
        let _ = r.recv(0i64);
        let before = r.load(flag, 0);
        r.store(before, result, 0);
        r.send(1i64, 1i64);
        let _ = r.recv(2i64);
        let after = r.load(flag, 0);
        r.store(after, result, 1);
        r.ret(None);
        let rf = p.add_func(r.finish());

        let mut m = Machine::new(tiny(2), p);
        m.spawn(0, wf, &[]).unwrap();
        m.spawn(1, rf, &[]).unwrap();
        m.run().unwrap();
        assert_eq!(m.mem().read(result).unwrap(), 0, "spec store leaked");
        assert_eq!(m.mem().read(result + 1).unwrap(), 9, "commit not visible");
    }

    /// Core 1 speculatively reads `g`; core 0 stores `g` non-speculatively
    /// and then asks the conflict detector about core 1 — the RAW violation
    /// must be reported, attributed to core 1 with the conflicting address.
    fn conflict_check_program() -> (Program, i64, i64, FuncId, FuncId) {
        conflict_check_program_reading(1, 0)
    }

    /// [`conflict_check_program`] with `g` `words` long and the reader
    /// loading `g + offset` (the checker still stores `g`).
    fn conflict_check_program_reading(
        words: i64,
        offset: i64,
    ) -> (Program, i64, i64, FuncId, FuncId) {
        let mut p = Program::new();
        let g = p.add_global("g", words);
        let verdict = p.add_global("verdict", 1);

        let mut reader = FunctionBuilder::new("reader");
        reader.push(Inst::SpecBegin);
        let v = reader.load(g + offset, 0);
        reader.send(0i64, v);
        let _ = reader.recv(1i64);
        reader.push(Inst::SpecAbort);
        reader.ret(None);
        let rf = p.add_func(reader.finish());

        let mut checker = FunctionBuilder::new("checker");
        let _ = checker.recv(0i64);
        checker.store(7i64, g, 0);
        let c = checker.spec_check(1i64);
        checker.store(c, verdict, 0);
        checker.send(1i64, 1i64);
        checker.ret(None);
        let cf = p.add_func(checker.finish());
        (p, g, verdict, rf, cf)
    }

    #[test]
    fn spec_check_reports_cross_core_raw_conflicts() {
        let (p, g, verdict, rf, cf) = conflict_check_program();
        let mut m = Machine::new(tiny(2), p);
        m.spawn(0, cf, &[]).unwrap();
        m.spawn(1, rf, &[]).unwrap();
        let summary = m.run().unwrap();
        assert_eq!(m.mem().read(verdict).unwrap(), 1, "conflict must be seen");
        assert_eq!(summary.cores[1].spec_conflicts, 1);
        assert_eq!(summary.cores[1].spec_conflict_addr, Some(g));
        assert_eq!(summary.cores[0].spec_conflicts, 0);

        // A fresh invocation epoch forgets the verdict and the sets.
        m.clear_threads();
        assert_eq!(m.summary().cores[1].spec_conflicts, 0);
    }

    /// The reader's own store to `g` decides nothing by itself — what counts
    /// is whether a load of `g` reached shared memory. A load *before* the
    /// store did, and stays visible to `spec.check` after the word joins the
    /// store buffer; a load *after* it is store-forwarded and never recorded.
    #[test]
    fn read_before_own_write_stays_visible_to_spec_check() {
        for (read_first, conflict) in [(true, 1), (false, 0)] {
            let mut p = Program::new();
            let g = p.add_global("g", 1);
            let verdict = p.add_global("verdict", 1);

            let mut reader = FunctionBuilder::new("reader");
            reader.push(Inst::SpecBegin);
            if read_first {
                let _ = reader.load(g, 0);
            }
            reader.store(5i64, g, 0);
            let v = reader.load(g, 0);
            reader.send(0i64, v);
            let _ = reader.recv(1i64);
            reader.push(Inst::SpecAbort);
            reader.ret(None);
            let rf = p.add_func(reader.finish());

            let mut checker = FunctionBuilder::new("checker");
            let forwarded = checker.recv(0i64);
            checker.store(7i64, g, 0);
            let c = checker.spec_check(1i64);
            checker.store(c, verdict, 0);
            checker.send(1i64, 1i64);
            checker.ret(Some(Operand::Reg(forwarded)));
            let cf = p.add_func(checker.finish());

            let mut m = Machine::new(tiny(2), p);
            m.spawn(0, cf, &[]).unwrap();
            m.spawn(1, rf, &[]).unwrap();
            let summary = m.run().unwrap();
            assert_eq!(m.return_value(0), Some(5), "own store forwards");
            assert_eq!(m.mem().read(verdict).unwrap(), conflict);
            assert_eq!(summary.cores[1].spec_conflicts, conflict as u64);
            assert_eq!(m.mem().read(g).unwrap(), 7, "aborted store discarded");
        }
    }

    #[test]
    fn exempt_range_is_invisible_to_conflict_detection() {
        // Same RAW pattern as above, but `g` sits inside the exempt range —
        // the predictor-array case: ordered by protocol, never a conflict.
        let (p, g, verdict, rf, cf) = conflict_check_program();
        let mut m = Machine::new(tiny(2), p);
        m.set_conflict_exempt(g, g + 1);
        m.spawn(0, cf, &[]).unwrap();
        m.spawn(1, rf, &[]).unwrap();
        let summary = m.run().unwrap();
        assert_eq!(m.mem().read(verdict).unwrap(), 0);
        assert_eq!(summary.cores[1].spec_conflicts, 0);
    }

    #[test]
    fn spec_check_is_inert_when_detection_disabled() {
        let (p, _, verdict, rf, cf) = conflict_check_program();
        let mut cfg = tiny(2);
        cfg.conflict_detection = false;
        let mut m = Machine::new(cfg, p);
        m.spawn(0, cf, &[]).unwrap();
        m.spawn(1, rf, &[]).unwrap();
        let summary = m.run().unwrap();
        assert_eq!(m.mem().read(verdict).unwrap(), 0);
        assert_eq!(summary.cores[1].spec_conflicts, 0);
    }

    #[test]
    fn resteer_redirects_other_core() {
        // Core 1 spins forever; core 0 resteers it to its exit block.
        let mut p = Program::new();
        let mut spin = FunctionBuilder::new("spin");
        let spin_bb = spin.new_block();
        let exit_bb = spin.new_block();
        spin.br(spin_bb);
        spin.switch_to(spin_bb);
        spin.br(spin_bb);
        spin.switch_to(exit_bb);
        spin.ret(Some(Operand::Imm(123)));
        let spin_f = p.add_func(spin.finish());

        let mut boss = FunctionBuilder::new("boss");
        boss.push(Inst::Resteer {
            core: Operand::Imm(1),
            target: exit_bb,
        });
        boss.ret(None);
        let boss_f = p.add_func(boss.finish());

        let mut m = Machine::new(tiny(2), p);
        m.spawn(0, boss_f, &[]).unwrap();
        m.spawn(1, spin_f, &[]).unwrap();
        let summary = m.run().unwrap();
        assert_eq!(m.return_value(1), Some(123));
        assert!(summary.cycles < 1000);
    }

    #[test]
    fn deadlock_is_detected() {
        let mut p = Program::new();
        let mut b = FunctionBuilder::new("waiter");
        let v = b.recv(5i64);
        b.ret(Some(Operand::Reg(v)));
        let f = p.add_func(b.finish());
        let mut m = Machine::new(tiny(1), p);
        m.spawn(0, f, &[]).unwrap();
        match m.run() {
            Err(SimError::Deadlock { .. }) => {}
            other => panic!("expected deadlock, got {other:?}"),
        }
    }

    #[test]
    fn unrecovered_trap_is_reported() {
        let mut p = Program::new();
        let mut b = FunctionBuilder::new("wild");
        let v = b.load(-5i64, 0);
        b.ret(Some(Operand::Reg(v)));
        let f = p.add_func(b.finish());
        let mut m = Machine::new(tiny(1), p);
        m.spawn(0, f, &[]).unwrap();
        match m.run() {
            Err(SimError::UnrecoveredTrap { core: 0, .. }) => {}
            other => panic!("expected trap, got {other:?}"),
        }
    }

    #[test]
    fn spawn_on_missing_core_fails() {
        let p = Program::new();
        let mut m = Machine::new(tiny(1), p);
        assert_eq!(
            m.spawn(3, FuncId(0), &[]),
            Err(SimError::NoSuchCore { core: 3 })
        );
    }

    #[test]
    fn clear_threads_keeps_memory() {
        let mut p = Program::new();
        let g = p.add_global("g", 1);
        let mut b = FunctionBuilder::new("w");
        b.store(7i64, g, 0);
        b.ret(None);
        let f = p.add_func(b.finish());
        let mut m = Machine::new(tiny(1), p);
        m.spawn(0, f, &[]).unwrap();
        m.run().unwrap();
        m.clear_threads();
        m.reset_cycle_counter();
        assert_eq!(m.cycle(), 0);
        assert_eq!(m.mem().read(g).unwrap(), 7);
    }

    #[test]
    fn max_cycles_is_enforced() {
        let mut p = Program::new();
        let mut b = FunctionBuilder::new("spin");
        let l = b.new_block();
        b.br(l);
        b.switch_to(l);
        b.br(l);
        let f = p.add_func(b.finish());
        let mut cfg = tiny(1);
        cfg.max_cycles = 500;
        let mut m = Machine::new(cfg, p);
        m.spawn(0, f, &[]).unwrap();
        assert_eq!(m.run(), Err(SimError::MaxCyclesExceeded { limit: 500 }));
    }

    /// Drives `m` with the cycle-stepped oracle until every thread is done.
    fn tick_to_completion(m: &mut Machine) {
        let mut guard = 0;
        while !m.cores.iter().all(|c| c.thread.is_none() || c.done) {
            m.step_cycle();
            guard += 1;
            assert!(guard < 100_000, "tick twin diverged");
        }
    }

    /// The event scheduler must be observationally identical to stepping
    /// every cycle: drive one machine with `run()` and a twin cycle-by-cycle
    /// with `step_cycle()`, and compare the full summaries.
    #[test]
    fn event_scheduling_matches_cycle_stepping() {
        let build = || {
            // Two threads with staggered stalls and channel traffic: thread 0
            // sends a sequence; thread 1 receives and chases memory.
            let mut p = Program::new();
            let data = p.add_global("data", 64);
            let mut s = FunctionBuilder::new("producer");
            let mut acc = s.copy(0i64);
            for k in 0..6 {
                acc = s.binop(BinOp::Add, acc, 3i64);
                s.send(0i64, acc);
                let _ = s.load(data + k, 0);
            }
            s.ret(Some(Operand::Reg(acc)));
            let pf = p.add_func(s.finish());
            let mut r = FunctionBuilder::new("consumer");
            let mut sum = r.copy(0i64);
            for k in 0..6 {
                let v = r.recv(0i64);
                let w = r.load(data + 2 * k, 0);
                let t = r.binop(BinOp::Add, v, w);
                let t2 = r.binop(BinOp::Add, sum, t);
                sum = t2;
                r.store(t2, data + 30 + k, 0);
            }
            r.ret(Some(Operand::Reg(sum)));
            let rf = p.add_func(r.finish());
            (p, pf, rf)
        };

        let (p, pf, rf) = build();
        let mut event_m = Machine::new(tiny(2), p);
        event_m.spawn(0, pf, &[]).unwrap();
        event_m.spawn(1, rf, &[]).unwrap();
        let event_summary = event_m.run().unwrap();

        let (p, pf, rf) = build();
        let mut tick_m = Machine::new(tiny(2), p);
        tick_m.spawn(0, pf, &[]).unwrap();
        tick_m.spawn(1, rf, &[]).unwrap();
        tick_to_completion(&mut tick_m);
        let tick_summary = tick_m.summary();

        assert_eq!(event_summary, tick_summary);
        assert_eq!(event_m.mem().words(), tick_m.mem().words());
    }

    /// Regression: a resteer issued by a core running far ahead, toward a
    /// parked (blocked) core, must not cost that core its stall credit for
    /// the interval — the cycle-stepped machine ticks the blocked core every
    /// cycle up to and including the delivery cycle, so the target must be
    /// settled before delivery clears the blocked flag.
    #[test]
    fn resteer_from_single_active_loop_matches_cycle_stepping() {
        let build = || {
            let mut p = Program::new();
            // Core 1 blocks forever on a channel nobody sends to; its only
            // exit is the remote resteer.
            let mut w = FunctionBuilder::new("waiter");
            let exit_bb = w.new_block();
            let v = w.recv(9i64);
            w.ret(Some(Operand::Reg(v)));
            w.switch_to(exit_bb);
            w.ret(Some(Operand::Imm(-1)));
            let wf = p.add_func(w.finish());
            // Core 0 computes alone for a while (one long run-ahead burst),
            // then resteers core 1 to its exit block.
            let mut boss = FunctionBuilder::new("boss");
            let mut acc = boss.copy(0i64);
            for _ in 0..40 {
                acc = boss.binop(BinOp::Add, acc, 1i64);
            }
            boss.push(Inst::Resteer {
                core: Operand::Imm(1),
                target: exit_bb,
            });
            boss.ret(Some(Operand::Reg(acc)));
            let bf = p.add_func(boss.finish());
            (p, bf, wf)
        };

        let (p, bf, wf) = build();
        let mut event_m = Machine::new(tiny(2), p);
        event_m.spawn(0, bf, &[]).unwrap();
        event_m.spawn(1, wf, &[]).unwrap();
        let event_summary = event_m.run().unwrap();
        assert_eq!(event_m.return_value(1), Some(-1));

        let (p, bf, wf) = build();
        let mut tick_m = Machine::new(tiny(2), p);
        tick_m.spawn(0, bf, &[]).unwrap();
        tick_m.spawn(1, wf, &[]).unwrap();
        tick_to_completion(&mut tick_m);
        assert_eq!(event_summary, tick_m.summary());
    }

    /// Same-cycle order is core-index order. A store by the lower-indexed
    /// core at cycle `t` is seen by the higher-indexed core's load at `t`
    /// and not the reverse — also when the storing core reached `t` by
    /// running ahead of a stalled peer — and a resteer queued at `t` lands
    /// only after every core's step at `t`.
    #[test]
    fn same_cycle_steps_run_in_core_index_order() {
        let cfg = tiny(2);
        // What a cold load at cycle 0 costs (issue + a miss at every level):
        // the cycle both cores' accesses to `g` are aimed at.
        let miss = cfg.l1d.hit_latency + cfg.l2.hit_latency + cfg.l3.hit_latency;
        let t = 1 + miss + cfg.memory_latency;
        let mut p = Program::new();
        let g = p.add_global("g", 1);
        let cold = p.add_global("cold", 64) + 32;
        // The loader stalls on `cold` until `t`, then loads `g`.
        let mut l = FunctionBuilder::new("loader");
        let _ = l.load(cold, 0);
        let seen = l.load(g, 0);
        l.ret(Some(Operand::Reg(seen)));
        let loader = p.add_func(l.finish());
        // The storer issues one ALU operation per cycle (the tiny machine is
        // single-issue) and stores to `g` in its group at `t`.
        let mut s = FunctionBuilder::new("storer");
        let mut acc = s.copy(0i64);
        for _ in 1..t {
            acc = s.binop(BinOp::Add, acc, 1i64);
        }
        s.store(7i64, g, 0);
        s.ret(Some(Operand::Reg(acc)));
        let storer = p.add_func(s.finish());

        for (funcs, expected) in [([storer, loader], 7), ([loader, storer], 0)] {
            let mut m = Machine::new(cfg.clone(), p.clone());
            m.enable_trace(1024);
            m.watch_address(g);
            m.spawn(0, funcs[0], &[]).unwrap();
            m.spawn(1, funcs[1], &[]).unwrap();
            m.run().unwrap();
            let touched: Vec<(u64, u32, bool)> = m
                .trace()
                .unwrap()
                .events()
                .filter_map(|e| match e {
                    TraceEvent::Watch {
                        at, core, is_store, ..
                    } => Some((*at, *core, *is_store)),
                    _ => None,
                })
                .collect();
            let loader_core = u32::from(funcs[1] == loader);
            assert_eq!(
                touched,
                [(t, 0, loader_core != 0), (t, 1, loader_core != 1)],
                "both accesses at cycle {t}, core 0 first"
            );
            assert_eq!(m.return_value(loader_core as usize), Some(expected));
        }

        // Core 0 resteers core 1 in its group at cycle `n`; core 1 still
        // retires its own group at `n` and is redirected from `n + 1`.
        let n = 5;
        let mut p = Program::new();
        let mut w = FunctionBuilder::new("worker");
        let exit_bb = w.new_block();
        let mut acc = w.copy(0i64);
        for _ in 0..n + 2 {
            acc = w.binop(BinOp::Add, acc, 1i64);
        }
        w.ret(Some(Operand::Reg(acc)));
        w.switch_to(exit_bb);
        w.ret(Some(Operand::Imm(-1)));
        let worker = p.add_func(w.finish());
        let mut boss = FunctionBuilder::new("boss");
        for _ in 0..n {
            let _ = boss.copy(0i64);
        }
        boss.push(Inst::Resteer {
            core: Operand::Imm(1),
            target: exit_bb,
        });
        boss.ret(None);
        let boss = p.add_func(boss.finish());
        let mut cfg = tiny(2);
        cfg.inter_core_latency = 0;
        let mut m = Machine::new(cfg, p);
        m.spawn(0, boss, &[]).unwrap();
        m.spawn(1, worker, &[]).unwrap();
        let summary = m.run().unwrap();
        assert_eq!(summary.cores[1].retired, n + 1, "the step at {n} ran");
        assert_eq!(summary.cores[1].finished_at, Some(n + 1));
        assert_eq!(
            m.return_value(1),
            Some(-1),
            "and the next one was redirected"
        );
    }

    /// The observer's halves are independent and never change simulated
    /// time: bare, trace only, attribution only and both on compute the same
    /// summary and memory, the two traces are equal event for event (the
    /// squash and its forensics included) and so are the two attributions.
    /// (`tests/observer_door.rs` repeats this on `list_splice` at four
    /// threads.)
    #[test]
    fn tracing_never_changes_simulated_time() {
        let (p, g, _, rf, cf) = conflict_check_program();
        let run = |trace: bool, attribution: bool| {
            let mut m = Machine::new(tiny(2), p.clone());
            if trace {
                m.enable_trace(1024);
                m.watch_address(g);
            }
            if attribution {
                m.enable_cycle_attribution();
            }
            m.spawn(0, cf, &[]).unwrap();
            m.spawn(1, rf, &[]).unwrap();
            m.run().unwrap();
            m
        };
        let [bare, traced, attributed, both] =
            [(false, false), (true, false), (false, true), (true, true)].map(|(t, a)| run(t, a));
        for watched in [&traced, &attributed, &both] {
            assert_eq!(watched.summary(), bare.summary());
            assert_eq!(watched.mem().words(), bare.mem().words());
        }
        assert!(bare.trace().is_none() && attributed.trace().is_none());
        assert_eq!(traced.trace(), both.trace());
        assert!(bare.cycle_attribution().is_none() && traced.cycle_attribution().is_none());
        assert!(attributed.cycle_attribution().expect("on").total_cycles() > 0);
        assert_eq!(attributed.cycle_attribution(), both.cycle_attribution());

        let t = traced.trace().expect("on");
        assert_eq!(t.squashes(), 1, "the abort became a squash event");
        let kinds: Vec<&str> = t.events().map(TraceEvent::kind).collect();
        for needed in [
            "retire",
            "send",
            "recv",
            "chunk_begin",
            "chunk_validate",
            "chunk_squash",
            "watch",
        ] {
            assert!(kinds.contains(&needed), "missing {needed} in {kinds:?}");
        }
    }

    /// The squash event on the conflict program carries full forensics: the
    /// violating address, the writer's core/site, the reader's site, and no
    /// false conflicts at word granularity.
    #[test]
    fn squash_forensics_reconstruct_the_raw_chain() {
        let (p, g, _, rf, cf) = conflict_check_program();
        let mut m = Machine::new(tiny(2), p);
        m.enable_trace(1024);
        m.spawn(0, cf, &[]).unwrap();
        m.spawn(1, rf, &[]).unwrap();
        let summary = m.run().unwrap();
        assert_eq!(summary.cores[1].spec_conflict_addr, Some(g));

        let squash = m
            .trace()
            .unwrap()
            .events()
            .find_map(|e| match e {
                TraceEvent::ChunkSquash {
                    core,
                    chunk,
                    cause,
                    forensics,
                    ..
                } => Some((*core, *chunk, *cause, *forensics)),
                _ => None,
            })
            .expect("a squash event");
        let (core, chunk, cause, forensics) = squash;
        assert_eq!(core, 1, "the reader's chunk squashed");
        assert!(chunk.is_some(), "forensic chunk id tracked");
        assert_eq!(cause, MisspeculationCause::DependenceViolation { addr: g });
        let f = forensics.expect("forensics attached");
        assert_eq!(f.addr, g);
        assert_eq!(f.word_addr, Some(g), "true conflict, word-exact");
        assert_eq!(f.writer_core, Some(0), "the checker wrote g");
        assert_eq!(f.writer_chunk, None, "writer was non-speculative");
        assert!(f.writer_site.is_some() && f.reader_site.is_some());
        assert_eq!(f.false_conflicts, 0);
        assert_eq!(f.granularity_log2, 0);
    }

    /// At a coarse detection granularity, a reader and writer touching
    /// *different* words of the same grain squash with `word_addr: None` and
    /// a positive false-conflict count — the satellite's word-vs-grain
    /// classification.
    #[test]
    fn squash_forensics_classify_false_conflicts() {
        // The reader loads g+1 while the checker stores g — same 8-word
        // grain, different words.
        let (p, _, _, rf, cf) = conflict_check_program_reading(8, 1);

        let mut cfg = tiny(2);
        cfg.conflict_granularity_log2 = 3;
        let mut m = Machine::new(cfg, p);
        m.enable_trace(1024);
        m.spawn(0, cf, &[]).unwrap();
        m.spawn(1, rf, &[]).unwrap();
        let summary = m.run().unwrap();
        assert_eq!(summary.cores[1].spec_conflicts, 1, "grain aliasing fired");

        let f = m
            .trace()
            .unwrap()
            .events()
            .find_map(|e| match e {
                TraceEvent::ChunkSquash { forensics, .. } => *forensics,
                _ => None,
            })
            .expect("squash with forensics");
        assert_eq!(f.word_addr, None, "no word-level overlap");
        assert_eq!(f.false_conflicts, 1);
        assert_eq!(f.granularity_log2, 3);
        assert_eq!(f.writer_core, Some(0), "grain-scan still finds the writer");
        assert!(f.reader_site.is_some(), "and the reader's site");
    }

    /// Snapshot at a mid-run cycle, resume, and finish: summary, memory and
    /// trace tail must be bit-identical to the uninterrupted run — on the
    /// multi-core event path (this program keeps both cores live).
    #[test]
    fn snapshot_resume_is_bit_identical() {
        let (p, _, _, rf, cf) = conflict_check_program();
        let mut full = Machine::new(tiny(2), p.clone());
        full.enable_trace(1024);
        full.spawn(0, cf, &[]).unwrap();
        full.spawn(1, rf, &[]).unwrap();
        let full_summary = full.run().unwrap();
        assert!(full_summary.cycles > 40, "enough room to pause mid-run");

        for pause_at in [1u64, 17, full_summary.cycles / 2, full_summary.cycles - 1] {
            let mut m = Machine::new(tiny(2), p.clone());
            m.enable_trace(1024);
            m.spawn(0, cf, &[]).unwrap();
            m.spawn(1, rf, &[]).unwrap();
            let paused = m.run_until(pause_at).unwrap();
            assert!(paused.is_none(), "run must pause at {pause_at}");
            let snap = m.snapshot();
            assert_eq!(snap.cycle(), pause_at);
            let mut resumed = Machine::resume_from(&snap);
            let resumed_summary = resumed.run().unwrap();
            assert_eq!(resumed_summary, full_summary, "paused at {pause_at}");
            assert_eq!(resumed.mem().words(), full.mem().words());
            assert_eq!(
                resumed.trace().unwrap(),
                full.trace().unwrap(),
                "trace tail diverged after pausing at {pause_at}"
            );
        }
    }

    /// Same bit-identity with a single core running ahead unbounded, and
    /// via the periodic recorder instead of a manual snapshot.
    #[test]
    fn periodic_snapshots_resume_single_core_runs() {
        let mut b = FunctionBuilder::new("chase");
        let data = 64i64;
        let mut acc = b.copy(0i64);
        for k in 0..12 {
            let w = b.load(data + k, 0);
            let t = b.binop(BinOp::Add, acc, w);
            acc = b.binop(BinOp::Add, t, 1i64);
        }
        b.ret(Some(Operand::Reg(acc)));
        let mut p = Program::new();
        let _g = p.add_global("data", 64);
        let f = p.add_func(b.finish());

        let mut full = Machine::new(tiny(1), p.clone());
        full.spawn(0, f, &[]).unwrap();
        let full_summary = full.run().unwrap();

        let mut m = Machine::new(tiny(1), p.clone());
        m.enable_snapshots(25);
        m.spawn(0, f, &[]).unwrap();
        let _ = m.run().unwrap();
        let taken = m.snapshots_taken();
        assert!(!taken.is_empty(), "periodic snapshots were taken");
        for snap in taken {
            let mut resumed = Machine::resume_from(snap);
            let resumed_summary = resumed.run().unwrap();
            assert_eq!(resumed_summary, full_summary, "from cycle {}", snap.cycle());
        }

        // And a pause landing *inside* the run-ahead burst: stopping at the
        // budget must leave resumable state mid-stall.
        assert!(full_summary.cycles > 30);
        let mut m = Machine::new(tiny(1), p);
        m.spawn(0, f, &[]).unwrap();
        let paused = m.run_until(30).unwrap();
        assert!(paused.is_none(), "paused mid burst");
        let mut resumed = Machine::resume_from(&m.snapshot());
        assert_eq!(resumed.run().unwrap(), full_summary);
    }
}
