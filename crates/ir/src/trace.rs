//! Structured event tracing shared by every execution backend.
//!
//! A [`TraceEvent`] is one observable fact about a run — an issue group
//! retiring, a scalar crossing a channel, a speculative chunk beginning,
//! validating, committing or squashing, the predictor planning or absorbing
//! feedback, a memory access missing to main memory, a watched address being
//! touched. Backends *emit* events into a [`TraceRecorder`], which keeps
//! them in a bounded ring buffer so tracing an arbitrarily long run costs
//! bounded memory.
//!
//! The hard rule, shared with the simulator's `CycleAttribution`: **tracing
//! is observational.** An enabled recorder must never change simulated cycles,
//! conflict verdicts, commit order, or any other architectural or
//! micro-architectural outcome — a traced run and an untraced run of the
//! same program are bit-identical in everything but the trace. The
//! simulator and the native chunk runtime both emit the chunk-lifecycle
//! subset (`ChunkBegin`/`ChunkValidate`/`ChunkCommit`/`ChunkSquash`) with
//! the same meaning, so their traces are directly comparable when
//! diagnosing a sim↔native divergence.
//!
//! Events are deterministic: the simulator is single-threaded, and the
//! native backend only emits from its ordered main-thread validation loop —
//! so two runs of the same prepared program produce byte-identical traces
//! regardless of host scheduling.

use std::collections::VecDeque;

use crate::exec::MisspeculationCause;
use crate::{BlockId, FuncId};

/// Forensic detail attached to a dependence-violation squash: the RAW chain
/// reconstructed at squash time, while the reader's read set and the
/// epoch's write origins are still alive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SquashForensics {
    /// The violating address reported by the conflict check — the grain's
    /// base word address at the configured detection granularity.
    pub addr: i64,
    /// The smallest *word-granular* address the reader actually shares with
    /// the epoch's writes, when one exists. `None` means the conflict is a
    /// false conflict: two distinct words aliasing through a coarsened
    /// detection grain.
    pub word_addr: Option<i64>,
    /// Core that performed the conflicting write, if its origin was tracked.
    pub writer_core: Option<u32>,
    /// Chunk id of the writer at the time of the write (`None` for the
    /// non-speculative main chunk).
    pub writer_chunk: Option<u64>,
    /// Program location of the conflicting store.
    pub writer_site: Option<(FuncId, BlockId)>,
    /// Cycle (or native sequence point) of the conflicting store.
    pub writer_at: Option<u64>,
    /// Program location of the violating load on the squashed chunk.
    pub reader_site: Option<(FuncId, BlockId)>,
    /// Grains the reader's set shares with the epoch writes at the
    /// configured granularity *minus* the true word-level overlaps — the
    /// per-chunk count of false conflicts the coarsening invented.
    pub false_conflicts: u64,
    /// Detection granularity the run used (`0` = exact words).
    pub granularity_log2: u8,
}

/// One observable fact about a run. The `at` field carries simulated cycles
/// on the simulator and a monotone per-invocation sequence number on the
/// native backend (which has no cycle clock).
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// A new loop invocation started (emitted by the runner; `at` restarts
    /// from zero within each invocation on the simulator).
    InvocationBegin {
        /// Zero-based invocation index.
        index: u64,
    },
    /// One issue group retired on a core.
    Retire {
        /// Simulated cycle (or native sequence number).
        at: u64,
        /// Core that retired the group.
        core: u32,
        /// Function of the instruction that ended the group.
        func: FuncId,
        /// Block of the instruction that ended the group.
        block: BlockId,
        /// Instructions retired in the group.
        retired: u32,
    },
    /// A scalar was sent on an inter-core channel.
    ChannelSend {
        /// Simulated cycle (or native sequence number).
        at: u64,
        /// Sending core.
        core: u32,
        /// Channel id.
        chan: i64,
        /// Value sent.
        value: i64,
    },
    /// A scalar was received from an inter-core channel.
    ChannelRecv {
        /// Simulated cycle (or native sequence number).
        at: u64,
        /// Receiving core.
        core: u32,
        /// Channel id.
        chan: i64,
        /// Value received.
        value: i64,
    },
    /// A speculative chunk began (`spec.begin` retired / native worker
    /// chunk spawned).
    ChunkBegin {
        /// Simulated cycle (or native sequence number).
        at: u64,
        /// Core the chunk runs on.
        core: u32,
        /// Monotone chunk id, unique within the traced run.
        chunk: u64,
    },
    /// A chunk's read set was checked against the epoch's committed writes.
    ChunkValidate {
        /// Simulated cycle (or native sequence number).
        at: u64,
        /// Core whose read set was checked.
        core: u32,
        /// The checked chunk, if one is active on that core.
        chunk: Option<u64>,
        /// The violating address the check found, if any.
        conflict: Option<i64>,
    },
    /// A speculative chunk committed its buffered writes.
    ChunkCommit {
        /// Simulated cycle (or native sequence number).
        at: u64,
        /// Core the chunk ran on.
        core: u32,
        /// The committing chunk, if tracked.
        chunk: Option<u64>,
        /// Number of distinct words the commit drained to shared memory.
        writes: u64,
    },
    /// A speculative chunk was squashed.
    ChunkSquash {
        /// Simulated cycle (or native sequence number).
        at: u64,
        /// Core the chunk ran on.
        core: u32,
        /// The squashed chunk, if tracked.
        chunk: Option<u64>,
        /// Why it was squashed, as known at squash time.
        cause: MisspeculationCause,
        /// RAW-chain forensics for dependence violations.
        forensics: Option<SquashForensics>,
    },
    /// The value predictor produced a plan for an invocation.
    PredictorPlan {
        /// Simulated cycle (or native sequence number).
        at: u64,
        /// Chunks the plan tasked.
        chunks: u64,
    },
    /// The predictor absorbed an invocation's feedback.
    PredictorFeedback {
        /// Simulated cycle (or native sequence number).
        at: u64,
        /// Chunks that committed.
        committed: u64,
        /// Chunks that were squashed.
        squashed: u64,
    },
    /// A load or store missed every cache level and went to main memory.
    CacheMiss {
        /// Simulated cycle.
        at: u64,
        /// Core that issued the access.
        core: u32,
        /// Word address accessed.
        addr: i64,
        /// Whether the access was a store.
        is_store: bool,
    },
    /// A watched address was loaded or stored.
    Watch {
        /// Simulated cycle.
        at: u64,
        /// Core that touched the address.
        core: u32,
        /// Program location of the access.
        func: FuncId,
        /// Block of the access.
        block: BlockId,
        /// The watched address.
        addr: i64,
        /// Value at the address after the access (the store's value, or the
        /// loaded word).
        value: i64,
        /// Whether the access was a store.
        is_store: bool,
    },
}

impl TraceEvent {
    /// Short kind tag, used by serializers and filters.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::InvocationBegin { .. } => "invocation",
            TraceEvent::Retire { .. } => "retire",
            TraceEvent::ChannelSend { .. } => "send",
            TraceEvent::ChannelRecv { .. } => "recv",
            TraceEvent::ChunkBegin { .. } => "chunk_begin",
            TraceEvent::ChunkValidate { .. } => "chunk_validate",
            TraceEvent::ChunkCommit { .. } => "chunk_commit",
            TraceEvent::ChunkSquash { .. } => "chunk_squash",
            TraceEvent::PredictorPlan { .. } => "predictor_plan",
            TraceEvent::PredictorFeedback { .. } => "predictor_feedback",
            TraceEvent::CacheMiss { .. } => "cache_miss",
            TraceEvent::Watch { .. } => "watch",
        }
    }

    /// The event's time coordinate (simulated cycle, or the native sequence
    /// number); invocation markers report 0.
    #[must_use]
    pub fn at(&self) -> u64 {
        match *self {
            TraceEvent::InvocationBegin { .. } => 0,
            TraceEvent::Retire { at, .. }
            | TraceEvent::ChannelSend { at, .. }
            | TraceEvent::ChannelRecv { at, .. }
            | TraceEvent::ChunkBegin { at, .. }
            | TraceEvent::ChunkValidate { at, .. }
            | TraceEvent::ChunkCommit { at, .. }
            | TraceEvent::ChunkSquash { at, .. }
            | TraceEvent::PredictorPlan { at, .. }
            | TraceEvent::PredictorFeedback { at, .. }
            | TraceEvent::CacheMiss { at, .. }
            | TraceEvent::Watch { at, .. } => at,
        }
    }
}

/// Default ring capacity of a [`TraceRecorder`].
pub const DEFAULT_TRACE_CAPACITY: usize = 1 << 16;

/// The one trace sink: a bounded ring buffer of events plus
/// lifetime counters that survive eviction. Cloneable so a machine
/// snapshot can carry the recorder's exact state and a resumed run
/// continues the identical trace.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceRecorder {
    capacity: usize,
    events: VecDeque<TraceEvent>,
    /// Events evicted from the ring to stay within capacity.
    dropped: u64,
    /// Events emitted over the recorder's lifetime (kept + dropped).
    total: u64,
    /// Lifetime `ChunkSquash` count (eviction-proof).
    squashes: u64,
    /// Addresses whose accesses the emitting backend should surface as
    /// [`TraceEvent::Watch`] events.
    watches: Vec<i64>,
}

impl Default for TraceRecorder {
    fn default() -> Self {
        TraceRecorder::new(DEFAULT_TRACE_CAPACITY)
    }
}

impl TraceRecorder {
    /// Creates a recorder keeping at most `capacity` events (minimum 1).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        TraceRecorder {
            capacity: capacity.max(1),
            events: VecDeque::new(),
            dropped: 0,
            total: 0,
            squashes: 0,
            watches: Vec::new(),
        }
    }

    /// Adds an address to the watch list (deduplicated).
    pub fn watch(&mut self, addr: i64) {
        if !self.watches.contains(&addr) {
            self.watches.push(addr);
        }
    }

    /// Whether `addr` is on the watch list.
    #[must_use]
    pub fn is_watched(&self, addr: i64) -> bool {
        self.watches.contains(&addr)
    }

    /// The events currently held, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter()
    }

    /// Number of events currently held.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether no events are held.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events evicted to stay within capacity.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Events emitted over the recorder's lifetime.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Lifetime `ChunkSquash` count, immune to ring eviction.
    #[must_use]
    pub fn squashes(&self) -> u64 {
        self.squashes
    }

    /// The ring capacity.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Discards held events (lifetime counters keep accumulating).
    pub fn clear(&mut self) {
        self.events.clear();
    }

    /// Records one event, evicting the oldest held event when the ring is
    /// full. Purely observational: emitting may never change the emitting
    /// backend's behaviour.
    pub fn emit(&mut self, event: TraceEvent) {
        self.total += 1;
        if matches!(event, TraceEvent::ChunkSquash { .. }) {
            self.squashes += 1;
        }
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn retire(at: u64) -> TraceEvent {
        TraceEvent::Retire {
            at,
            core: 0,
            func: FuncId(0),
            block: BlockId(0),
            retired: 1,
        }
    }

    #[test]
    fn ring_buffer_evicts_oldest_and_counts_everything() {
        let mut r = TraceRecorder::new(2);
        r.emit(retire(1));
        r.emit(retire(2));
        r.emit(retire(3));
        assert_eq!(r.len(), 2);
        assert_eq!(r.total(), 3);
        assert_eq!(r.dropped(), 1);
        let ats: Vec<u64> = r.events().map(TraceEvent::at).collect();
        assert_eq!(ats, vec![2, 3]);
    }

    #[test]
    fn squash_counter_survives_eviction() {
        let mut r = TraceRecorder::new(1);
        r.emit(TraceEvent::ChunkSquash {
            at: 5,
            core: 1,
            chunk: Some(0),
            cause: MisspeculationCause::StalePrediction,
            forensics: None,
        });
        r.emit(retire(6));
        assert_eq!(r.squashes(), 1);
        assert_eq!(r.len(), 1);
        assert_eq!(r.events().next().map(TraceEvent::kind), Some("retire"));
    }

    #[test]
    fn watches_deduplicate() {
        let mut r = TraceRecorder::new(4);
        r.watch(100);
        r.watch(100);
        r.watch(200);
        assert!(r.is_watched(100) && r.is_watched(200) && !r.is_watched(300));
        assert_eq!(r.events().count(), 0);
    }

    #[test]
    fn snapshot_clone_continues_identically() {
        let mut a = TraceRecorder::new(3);
        a.emit(retire(1));
        a.emit(retire(2));
        let mut b = a.clone();
        a.emit(retire(3));
        b.emit(retire(3));
        assert_eq!(a, b);
    }
}
