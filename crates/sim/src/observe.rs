//! The machine's one observer: event tracing with the squash forensics that
//! ride on it, and cycle attribution.
//!
//! Observers never change simulated time. `Shared::issue_group` keeps that
//! easy to see by consulting a single `Option<Box<Observer>>` at three
//! points — before a step (to capture the retiring instruction's site),
//! after it ([`Observer::step`]: what the ports saw, handed over by value)
//! and at the end of the group ([`Observer::group_end`]: chunk begin /
//! commit / squash, attribution, retire) — and nothing in this module
//! writes machine state. The ports and the
//! [`ConflictTracker`](crate::conflict::ConflictTracker) know nothing of
//! who is watching: the ports record every step's accesses unconditionally,
//! and the tracker only reports whether an access entered a detection set.
//! A squash's cause comes from the one commit rule ([`CommitChain`]), so a
//! Spice run's trace names the causes its report does.
//!
//! Each half is enabled on its own ([`Machine::enable_trace`],
//! [`Machine::enable_cycle_attribution`]). A snapshot carries the tracing
//! half — ring, watch list, forensic sets, chunk ids — so a resumed trace
//! continues exactly; attribution is a whole-run profile and starts over.

use std::collections::HashMap;

use serde::{Deserialize, Serialize};

use spice_ir::{
    BlockId, ChunkEnd, CommitChain, FuncId, SquashForensics, TraceEvent, TraceRecorder,
};

use crate::conflict::ConflictTracker;
use crate::machine::{Machine, SpecAction};

/// A program location: the `(function, block)` of a retiring instruction.
pub(crate) type Site = (FuncId, BlockId);

/// The memory access a step made, as its port saw it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct MemAccess {
    pub(crate) addr: i64,
    /// The value loaded or stored (0 for a load that trapped).
    pub(crate) value: i64,
    pub(crate) is_store: bool,
    /// Whether the access missed every cache level.
    pub(crate) missed: bool,
    /// Whether the conflict tracker took the address into a detection set.
    pub(crate) tracked: bool,
}

/// The channel or conflict-check operation a step made, as its port saw it.
#[derive(Debug, Clone, Copy)]
pub(crate) enum SysOp {
    Sent { chan: i64, value: i64 },
    Received { chan: i64, value: i64 },
    Checked { queried: i64, verdict: i64 },
}

/// Origin of the most recent architectural write to one word this epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct WriteOrigin {
    core: u32,
    /// Chunk id the writer was inside when the word became architectural
    /// (`None` for the non-speculative main chunk).
    chunk: Option<u64>,
    site: Site,
    at: u64,
}

/// The event ring plus the per-address attribution kept beside the conflict
/// sets while tracing is on: which site last wrote each word this epoch and
/// where each core's speculative reads came from. The maps' keys are
/// *word-granular* shadows of the (possibly coarser-grained) detection sets,
/// so a squash can be classified as a true RAW or a false conflict the
/// coarsening invented.
#[derive(Debug, Clone)]
struct Tracing {
    recorder: TraceRecorder,
    granularity_log2: u8,
    /// Monotone chunk-id allocator (never reset, so ids are unique within a
    /// traced machine's lifetime).
    next_chunk: u64,
    /// Chunk id currently active per core, if any.
    cur_chunk: Vec<Option<u64>>,
    /// Last architectural writer of each word the tracker's committed-write
    /// set took this epoch.
    writers: HashMap<i64, WriteOrigin>,
    /// Per core: site of the first read of each word the tracker's read set
    /// took this chunk.
    read_sites: Vec<HashMap<i64, Site>>,
    /// The epoch's commit chain as its squashes show it: unvalidated until
    /// the first squash, broken after it.
    chain: CommitChain,
}

impl Tracing {
    fn new(capacity: usize, cores: usize, granularity_log2: u8) -> Self {
        Tracing {
            recorder: TraceRecorder::new(capacity),
            granularity_log2,
            next_chunk: 0,
            cur_chunk: vec![None; cores],
            writers: HashMap::new(),
            read_sites: vec![HashMap::new(); cores],
            chain: CommitChain::Unvalidated,
        }
    }

    /// Remembers a write the committed-write set took, word-exact, with its
    /// origin.
    fn note_write(&mut self, core: usize, addr: i64, site: Site, at: u64) {
        let origin = WriteOrigin {
            core: core as u32,
            chunk: self.cur_chunk[core],
            site,
            at,
        };
        self.writers.insert(addr, origin);
    }

    /// Reconstructs the RAW chain behind `core`'s squash. Must run before
    /// the tracker's `end_chunk` consumes the read set. `None` when the
    /// read set shares nothing with the epoch's writes.
    fn explain_squash(&self, conflicts: &ConflictTracker, core: usize) -> Option<SquashForensics> {
        let (addr, grain_overlaps) = conflicts.overlap(core)?;
        let reads = &self.read_sites[core];
        let shared = reads.keys().filter(|w| self.writers.contains_key(w));
        let word_addr = shared.clone().min().copied();
        let word_overlaps = shared.count() as u64;
        let grain = addr..addr + (1i64 << self.granularity_log2);
        // Word-exact overlap first; for a pure false conflict, fall back to
        // whichever word of the guilty grain each side actually touched.
        let writer = word_addr
            .and_then(|w| self.writers.get(&w))
            .or_else(|| grain.clone().find_map(|w| self.writers.get(&w)));
        let reader = word_addr
            .and_then(|w| reads.get(&w))
            .or_else(|| grain.clone().find_map(|w| reads.get(&w)));
        Some(SquashForensics {
            addr,
            word_addr,
            writer_core: writer.map(|w| w.core),
            writer_chunk: writer.and_then(|w| w.chunk),
            writer_site: writer.map(|w| w.site),
            writer_at: writer.map(|w| w.at),
            reader_site: reader.copied(),
            false_conflicts: grain_overlaps.saturating_sub(word_overlaps),
            granularity_log2: self.granularity_log2,
        })
    }

    /// Forgets `core`'s chunk: its read sites and its id, which is returned.
    fn end_chunk(&mut self, core: usize) -> Option<u64> {
        self.read_sites[core].clear();
        self.cur_chunk[core].take()
    }
}

/// Cycle attribution by source location: every busy interval a retired
/// issue group causes (functional-unit latency, memory stalls, commit
/// drains) is charged to the `(function, block)` of the instruction that
/// ended the group. Summed per function this is whole-program profile data —
/// the measured analogue of Table 2's "fraction of execution time" column —
/// and summed over a loop's blocks it is the loop's measured hotness.
/// Attribution is an *observer*: enabling it never changes simulated time,
/// and it accumulates across invocations until the machine is dropped.
#[derive(Debug, Clone, Default, Serialize, Deserialize, PartialEq, Eq)]
pub struct CycleAttribution {
    /// `cycles[func][block]` — busy cycles charged to that block.
    cycles: Vec<Vec<u64>>,
}

impl CycleAttribution {
    fn add(&mut self, (func, block): Site, dt: u64) {
        if dt == 0 {
            return;
        }
        let f = func.index();
        if self.cycles.len() <= f {
            self.cycles.resize_with(f + 1, Vec::new);
        }
        let row = &mut self.cycles[f];
        let b = block.index();
        if row.len() <= b {
            row.resize(b + 1, 0);
        }
        row[b] += dt;
    }

    /// Cycles attributed to one block of `func`.
    #[must_use]
    pub fn block_cycles(&self, func: FuncId, block: BlockId) -> u64 {
        self.cycles
            .get(func.index())
            .and_then(|row| row.get(block.index()))
            .copied()
            .unwrap_or(0)
    }

    /// Cycles attributed to `func` as a whole.
    #[must_use]
    pub fn func_cycles(&self, func: FuncId) -> u64 {
        self.cycles
            .get(func.index())
            .map(|row| row.iter().sum())
            .unwrap_or(0)
    }

    /// All attributed cycles.
    #[must_use]
    pub fn total_cycles(&self) -> u64 {
        self.cycles.iter().flatten().sum()
    }
}

/// Everything that watches a run (see the module documentation).
#[derive(Debug, Clone, Default)]
pub(crate) struct Observer {
    tracing: Option<Tracing>,
    attribution: Option<CycleAttribution>,
}

impl Observer {
    /// After any step: what its ports saw, at most one of the two (an
    /// instruction makes one port call). `retired` is whether the step
    /// executed an instruction; only those become events. Out of line, like
    /// [`Observer::group_end`], so the unobserved issue group stays small.
    #[inline(never)]
    pub(crate) fn step(
        &mut self,
        conflicts: &ConflictTracker,
        (at, core, src): (u64, usize, Site),
        (op, accessed): (Option<SysOp>, Option<MemAccess>),
        retired: bool,
    ) {
        let Some(t) = self.tracing.as_mut() else {
            return;
        };
        // The forensic shadows follow the detection sets, which take an
        // access before memory can refuse it: a step that trapped still
        // feeds them, and emits nothing.
        if let Some(a) = accessed.filter(|a| a.tracked) {
            if a.is_store {
                t.note_write(core, a.addr, src, at);
            } else {
                t.read_sites[core].entry(a.addr).or_insert(src);
            }
        }
        if !retired {
            return;
        }
        let core = core as u32;
        match op {
            Some(SysOp::Sent { chan, value }) => t.recorder.emit(TraceEvent::ChannelSend {
                at,
                core,
                chan,
                value,
            }),
            Some(SysOp::Received { chan, value }) => t.recorder.emit(TraceEvent::ChannelRecv {
                at,
                core,
                chan,
                value,
            }),
            Some(SysOp::Checked { queried, verdict }) => {
                let idx = usize::try_from(queried).ok();
                let guilty = idx.filter(|_| verdict != 0);
                t.recorder.emit(TraceEvent::ChunkValidate {
                    at,
                    core: u32::try_from(queried).unwrap_or(u32::MAX),
                    chunk: idx.and_then(|q| t.cur_chunk.get(q).copied().flatten()),
                    conflict: guilty.and_then(|q| conflicts.verdict(q)),
                });
            }
            None => {}
        }
        if let Some(a) = accessed {
            if a.missed {
                t.recorder.emit(TraceEvent::CacheMiss {
                    at,
                    core,
                    addr: a.addr,
                    is_store: a.is_store,
                });
            }
            if t.recorder.is_watched(a.addr) {
                t.recorder.emit(TraceEvent::Watch {
                    at,
                    core,
                    func: src.0,
                    block: src.1,
                    addr: a.addr,
                    value: a.value,
                    is_store: a.is_store,
                });
            }
        }
    }

    /// At the end of a retired group, before the tracker's `end_chunk`:
    /// what its last instruction did to the core's chunk (`drained` buffered
    /// writes on a commit, `tracked` those the committed-write set took),
    /// the `busy` interval the group caused, and how many it `retired`.
    #[inline(never)]
    pub(crate) fn group_end(
        &mut self,
        conflicts: &ConflictTracker,
        (at, i, src): (u64, usize, Site),
        (retired, busy): (u32, u64),
        action: Option<SpecAction>,
        (drained, tracked): (u64, &[(i64, i64)]),
    ) {
        if let Some(a) = self.attribution.as_mut() {
            a.add(src, busy);
        }
        let Some(t) = self.tracing.as_mut() else {
            return;
        };
        let core = i as u32;
        match action {
            Some(SpecAction::Begin) => {
                let chunk = t.next_chunk;
                t.next_chunk += 1;
                t.cur_chunk[i] = Some(chunk);
                t.recorder.emit(TraceEvent::ChunkBegin { at, core, chunk });
            }
            Some(SpecAction::Commit) => {
                for &(addr, _) in tracked {
                    t.note_write(i, addr, src, at);
                }
                let chunk = t.end_chunk(i);
                t.recorder.emit(TraceEvent::ChunkCommit {
                    at,
                    core,
                    chunk,
                    writes: drained,
                });
            }
            Some(SpecAction::Abort) => {
                let forensics = t.explain_squash(conflicts, i);
                let chunk = t.end_chunk(i);
                // The merge chain squashes in thread order (it resteers and
                // awaits one worker at a time) and `spec.check`s exactly the
                // chunks whose start it validated.
                let witness = conflicts.verdict(i);
                if witness.is_some() && t.chain != CommitChain::Broken {
                    t.chain = CommitChain::Validated;
                }
                // On that chain, where the chunk stopped decides nothing.
                let cause = t.chain.judge(ChunkEnd::Exit, witness);
                let cause = cause.expect("a witnessed or unvalidated chunk never commits");
                t.recorder.emit(TraceEvent::ChunkSquash {
                    at,
                    core,
                    chunk,
                    cause,
                    forensics,
                });
            }
            None => {}
        }
        t.recorder.emit(TraceEvent::Retire {
            at,
            core,
            func: src.0,
            block: src.1,
            retired,
        });
    }

    /// A new conflict epoch began (`Machine::clear_threads`): everything
    /// but the ring, the watch list and the chunk-id allocator starts over.
    pub(crate) fn clear_epoch(&mut self) {
        let Some(t) = self.tracing.as_mut() else {
            return;
        };
        t.writers.clear();
        t.chain = CommitChain::Unvalidated;
        for core in 0..t.cur_chunk.len() {
            t.end_chunk(core);
        }
    }

    /// The half a snapshot carries: tracing, if it is on.
    pub(crate) fn resumable(&self) -> Option<Box<Observer>> {
        let tracing = Some(self.tracing.clone()?);
        Some(Box::new(Observer {
            tracing,
            attribution: None,
        }))
    }
}

impl Machine {
    fn observer(&mut self) -> &mut Observer {
        self.shared.observer.get_or_insert_with(Box::default)
    }

    fn recorder_mut(&mut self) -> Option<&mut TraceRecorder> {
        let tracing = self.shared.observer.as_mut()?.tracing.as_mut()?;
        Some(&mut tracing.recorder)
    }

    /// Enables per-`(function, block)` cycle attribution (see
    /// [`CycleAttribution`]). Purely observational; accumulates across
    /// invocations (`clear_threads`/`reset_cycle_counter` do not reset it).
    pub fn enable_cycle_attribution(&mut self) {
        self.observer().attribution = Some(CycleAttribution::default());
    }

    /// The accumulated cycle attribution, if enabled.
    #[must_use]
    pub fn cycle_attribution(&self) -> Option<&CycleAttribution> {
        self.shared.observer.as_ref()?.attribution.as_ref()
    }

    /// Enables structured event tracing into a ring buffer of `capacity`
    /// events, with squash forensics beside it (idempotent; chunk ids keep
    /// counting). Observational only: an enabled trace never changes
    /// simulated time or any architectural outcome, and it accumulates
    /// across invocations.
    pub fn enable_trace(&mut self, capacity: usize) {
        let config = &self.shared.config;
        let (cores, granularity_log2) = (config.cores, config.conflict_granularity_log2);
        self.observer()
            .tracing
            .get_or_insert_with(|| Tracing::new(capacity, cores, granularity_log2));
    }

    /// Adds `addr` to the watch list: every load/store of it becomes a
    /// [`TraceEvent::Watch`]. Requires [`Machine::enable_trace`] first
    /// (no-op otherwise).
    pub fn watch_address(&mut self, addr: i64) {
        if let Some(t) = self.recorder_mut() {
            t.watch(addr);
        }
    }

    /// The recorded event trace, if tracing is enabled.
    #[must_use]
    pub fn trace(&self) -> Option<&TraceRecorder> {
        let tracing = self.shared.observer.as_ref()?.tracing.as_ref()?;
        Some(&tracing.recorder)
    }

    /// Emits one event into the machine's trace (used by drivers to mark
    /// invocation boundaries and predictor decisions). No-op when tracing is
    /// off.
    pub fn trace_emit(&mut self, event: TraceEvent) {
        if let Some(t) = self.recorder_mut() {
            t.emit(event);
        }
    }
}
