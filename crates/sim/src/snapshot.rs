//! Machine checkpoints: taking one, the periodic recorder inside
//! [`Machine::run`], resuming from one, and pausing a run at a cycle.
//!
//! Every piece of scheduler state is derived from the [`Machine`] and its
//! cores, so a snapshot taken between any two events resumes bit-identically
//! (see the [`crate::machine`] module documentation).

use std::sync::Arc;

use spice_ir::interp::FlatMemory;
use spice_ir::{BlockId, DecodedProgram, Program};

use crate::cache::MemoryHierarchy;
use crate::channel::ChannelNet;
use crate::config::MachineConfig;
use crate::conflict::ConflictTracker;
use crate::machine::{CoreState, Machine, RunSummary, Shared, SimError};
use crate::observe::Observer;

/// Periodic checkpointing state: the baseline memory image snapshots are
/// diffed against, the configured interval, and every snapshot taken so far.
#[derive(Debug, Clone)]
pub(crate) struct SnapshotRecorder {
    interval: u64,
    /// The next mark: [`Machine::run`] checkpoints before the first event at
    /// or after it.
    pub(crate) next_at: u64,
    baseline: Arc<FlatMemory>,
    taken: Vec<MachineSnapshot>,
}

/// A complete machine checkpoint: every piece of mutable simulation state —
/// cores (threads, spec buffers, reports), channels, resteer queue, conflict
/// tracker, cache hierarchy, cycle — plus the memory image as a delta
/// against a shared baseline.
/// [`Machine::resume_from`] reconstructs a machine whose continuation is
/// bit-identical to the run the snapshot was taken from: same future
/// [`RunSummary`]s, same memory, same trace tail.
/// (Of the observers, event tracing and its squash forensics are captured,
/// so a resumed trace continues exactly; cycle attribution is not.)
#[derive(Debug, Clone)]
pub struct MachineSnapshot {
    config: MachineConfig,
    program: Arc<Program>,
    decoded: Arc<DecodedProgram>,
    cycle: u64,
    cores: Vec<CoreState>,
    channels: ChannelNet,
    resteer_requests: Vec<(i64, BlockId)>,
    conflicts: ConflictTracker,
    hier: MemoryHierarchy,
    observer: Option<Box<Observer>>,
    baseline: Arc<FlatMemory>,
    /// `(word index, value)` for every word differing from the baseline.
    delta: Vec<(usize, i64)>,
}

impl MachineSnapshot {
    /// Simulated cycle the snapshot was taken at.
    #[must_use]
    pub fn cycle(&self) -> u64 {
        self.cycle
    }
}

impl Machine {
    /// Enables periodic checkpointing: [`Machine::run`] takes a
    /// [`MachineSnapshot`] before the first event at or after each mark,
    /// `interval` cycles past the previous checkpoint. The current memory
    /// image becomes the baseline that snapshots are diffed against.
    pub fn enable_snapshots(&mut self, interval: u64) {
        let interval = interval.max(1);
        self.snapshots = Some(SnapshotRecorder {
            interval,
            next_at: self.cycle + interval,
            baseline: Arc::new(self.shared.mem.clone()),
            taken: Vec::new(),
        });
    }

    /// Takes a snapshot of the machine right now. Uses the periodic
    /// recorder's baseline when one exists; otherwise the snapshot carries a
    /// full copy of memory as its own baseline (empty delta).
    #[must_use]
    pub fn snapshot(&self) -> MachineSnapshot {
        let mem = &self.shared.mem;
        let (baseline, delta) = match self.snapshots.as_ref() {
            Some(s) => {
                debug_assert_eq!(s.baseline.size(), mem.size());
                let delta = mem
                    .words()
                    .iter()
                    .zip(s.baseline.words())
                    .enumerate()
                    .filter(|(_, (cur, base))| cur != base)
                    .map(|(i, (cur, _))| (i, *cur))
                    .collect();
                (Arc::clone(&s.baseline), delta)
            }
            None => (Arc::new(mem.clone()), Vec::new()),
        };
        MachineSnapshot {
            config: self.shared.config.clone(),
            program: Arc::clone(&self.program),
            decoded: Arc::clone(&self.shared.decoded),
            cycle: self.cycle,
            cores: self.cores.clone(),
            channels: self.shared.channels.clone(),
            resteer_requests: self.shared.resteer_requests.clone(),
            conflicts: self.shared.conflicts.clone(),
            hier: self.shared.hier.clone(),
            observer: self.shared.observer.as_ref().and_then(|o| o.resumable()),
            baseline,
            delta,
        }
    }

    /// Snapshots taken by the periodic recorder so far, oldest first.
    #[must_use]
    pub fn snapshots_taken(&self) -> &[MachineSnapshot] {
        self.snapshots.as_ref().map_or(&[], |s| &s.taken)
    }

    /// Reconstructs a machine from a snapshot. The continuation is
    /// bit-identical to the original run from the snapshot point: identical
    /// future summaries, memory words, and trace tail (the snapshot's trace
    /// state is restored; cycle attribution starts disabled).
    #[must_use]
    pub fn resume_from(snapshot: &MachineSnapshot) -> Machine {
        let mut mem = (*snapshot.baseline).clone();
        for &(i, v) in &snapshot.delta {
            mem.write(i as i64, v)
                .expect("a delta index is a word of the baseline-sized image");
        }
        Machine {
            program: Arc::clone(&snapshot.program),
            shared: Shared {
                config: snapshot.config.clone(),
                decoded: Arc::clone(&snapshot.decoded),
                mem,
                hier: snapshot.hier.clone(),
                channels: snapshot.channels.clone(),
                resteer_requests: snapshot.resteer_requests.clone(),
                conflicts: snapshot.conflicts.clone(),
                observer: snapshot.observer.clone(),
            },
            cores: snapshot.cores.clone(),
            cycle: snapshot.cycle,
            snapshots: None,
        }
    }

    /// Runs until completion or until the clock reaches `target`, whichever
    /// comes first. `Ok(Some(summary))` means the run finished before
    /// `target`; `Ok(None)` means it paused at `target` with all state
    /// intact — calling [`Machine::run`] (or `run_until` again) continues
    /// bit-identically: every event before `target` has run, none at or
    /// after it has, and settling the counters up to `target` is linear.
    ///
    /// # Errors
    ///
    /// Propagates any [`SimError`] other than the pause itself (the
    /// configured `max_cycles` budget still applies and still reports
    /// [`SimError::MaxCyclesExceeded`]).
    pub fn run_until(&mut self, target: u64) -> Result<Option<RunSummary>, SimError> {
        let saved = self.shared.config.max_cycles;
        let effective = target.min(saved);
        self.shared.config.max_cycles = effective;
        let out = self.run();
        self.shared.config.max_cycles = saved;
        match out {
            Ok(summary) => Ok(Some(summary)),
            Err(SimError::MaxCyclesExceeded { limit })
                if limit == effective && effective < saved =>
            {
                Ok(None)
            }
            Err(e) => Err(e),
        }
    }

    /// Takes the periodic checkpoint that is due and returns the next mark.
    /// Observational — snapshotting reads state but never perturbs it
    /// (settling early is linear).
    #[cold]
    pub(crate) fn checkpoint(&mut self) -> u64 {
        for c in &mut self.cores {
            c.settle(self.cycle);
        }
        let snap = self.snapshot();
        let s = self
            .snapshots
            .as_mut()
            .expect("a due mark implies a recorder");
        s.taken.push(snap);
        s.next_at = self.cycle + s.interval;
        s.next_at
    }
}
