//! Recorded-behaviour traces and their replay as first-class workloads.
//!
//! A [`WorkloadTrace`] is the portable record of what a loop *did*: per
//! invocation, the ordered sequence of live-in tuples read at its header
//! (the paper's §6 signal), plus optional fuzzer-injected forward
//! stores. Three consumers share the type:
//!
//! * the **recorder** (`spice-profiler::record_workload_trace`) fills one
//!   from a sequential run of a real driver that watches its loop headers;
//! * the **replay workload** ([`TraceReplayWorkload`]) turns any trace back
//!   into a runnable [`SpiceWorkload`] — a linked-list walk whose node
//!   addresses reproduce the recorded cross-invocation live-in overlap, so
//!   profiling the replay measures (approximately) the predictability the
//!   original run exhibited;
//! * the **fuzzer** ([`fuzz_trace`]) derives seeded mutants — allocation
//!   churn, re-linked traversal order, spliced forward writes — making any
//!   recording an unbounded scenario generator for the conflict subsystem.
//!
//! ## Replay mapping
//!
//! Each distinct `(live-in tuple, occurrence-within-invocation)` pair is
//! assigned one arena slot, in first-appearance order over the whole trace.
//! The mapping is injective and stable, so a tuple that repeats across
//! consecutive invocations revisits the *same address*, and a fresh tuple
//! (allocation churn in the original program) lands on a *new address* —
//! exactly the signal the §6 analyzer hashes. Two small distortions are
//! inherent and documented in DESIGN.md: set-membership of duplicated
//! tuples, and the replay loop's own final header visit (key `[0]`).
//!
//! Serialization lives in `spice_bench::tracefile` (the workloads crate
//! stays JSON-free); this module owns the data model, validation, replay
//! and mutation semantics.

use std::collections::HashMap;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use spice_ir::interp::FlatMemory;

use crate::arena::RecordArena;
use crate::conflict::{forward_overwrite_sum, splice_walk, NEXT, TARGET, VALUE};
use crate::{BuiltKernel, SpiceWorkload};

/// One recorded loop iteration: the live-in tuple read at the header, and
/// (for fuzzed traces) an optional forward store.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TraceIteration {
    /// The recorded live-in tuple (never empty in a valid trace).
    pub key: Vec<i64>,
    /// Fuzzer-injected splice: store this node's value into the node
    /// `write` iterations *ahead* in the same invocation's walk. `None`
    /// for recorded (non-mutated) traces.
    pub write: Option<u32>,
}

/// One loop invocation: its iterations in traversal order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceInvocation {
    /// Iterations in the order the loop executed them.
    pub iterations: Vec<TraceIteration>,
}

/// A recorded (or fuzzed) workload behaviour trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkloadTrace {
    /// Name of the originating workload (artifact label, not an identity).
    pub name: String,
    /// Name of the recorded loop.
    pub loop_name: String,
    /// Profiler site id the keys were recorded from.
    pub site: u32,
    /// The recorded invocations.
    pub invocations: Vec<TraceInvocation>,
}

/// Why a trace is malformed. Every path is a typed error — corrupted trace
/// files must never panic downstream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceError {
    /// The trace records no invocations at all.
    NoInvocations,
    /// An iteration has an empty live-in tuple.
    EmptyKey {
        /// Invocation index.
        invocation: usize,
        /// Iteration index within the invocation.
        iteration: usize,
    },
    /// A splice write points at or past the end of its invocation.
    WriteOutOfRange {
        /// Invocation index.
        invocation: usize,
        /// Iteration index within the invocation.
        iteration: usize,
        /// The offending forward distance.
        write: u32,
    },
    /// The trace name is empty.
    EmptyName,
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceError::NoInvocations => write!(f, "trace records no invocations"),
            TraceError::EmptyKey {
                invocation,
                iteration,
            } => write!(
                f,
                "invocation {invocation} iteration {iteration} has an empty live-in tuple"
            ),
            TraceError::WriteOutOfRange {
                invocation,
                iteration,
                write,
            } => write!(
                f,
                "invocation {invocation} iteration {iteration}: splice write +{write} \
                 points past the end of the invocation"
            ),
            TraceError::EmptyName => write!(f, "trace name is empty"),
        }
    }
}

impl std::error::Error for TraceError {}

impl WorkloadTrace {
    /// Checks the structural invariants the replay engine relies on.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant.
    pub fn validate(&self) -> Result<(), TraceError> {
        if self.name.is_empty() {
            return Err(TraceError::EmptyName);
        }
        if self.invocations.is_empty() {
            return Err(TraceError::NoInvocations);
        }
        for (i, inv) in self.invocations.iter().enumerate() {
            let len = inv.iterations.len();
            for (j, it) in inv.iterations.iter().enumerate() {
                if it.key.is_empty() {
                    return Err(TraceError::EmptyKey {
                        invocation: i,
                        iteration: j,
                    });
                }
                if let Some(w) = it.write {
                    if w == 0 || j + w as usize >= len {
                        return Err(TraceError::WriteOutOfRange {
                            invocation: i,
                            iteration: j,
                            write: w,
                        });
                    }
                }
            }
        }
        Ok(())
    }

    /// Total recorded iterations across all invocations.
    #[must_use]
    pub fn total_iterations(&self) -> u64 {
        self.invocations
            .iter()
            .map(|inv| inv.iterations.len() as u64)
            .sum()
    }

    /// True when any iteration carries a splice write (the replay kernel
    /// will store through node targets, so the conflict detector is needed).
    #[must_use]
    pub fn has_writes(&self) -> bool {
        self.invocations
            .iter()
            .any(|inv| inv.iterations.iter().any(|it| it.write.is_some()))
    }

    /// Content checksum (FNV-1a over every field, order-sensitive). Two
    /// traces with the same checksum stage identical replay scenarios.
    #[must_use]
    pub fn checksum(&self) -> u64 {
        let mut h = Fnv::new();
        h.bytes(self.name.as_bytes());
        h.bytes(self.loop_name.as_bytes());
        h.word(i64::from(self.site));
        h.word(self.invocations.len() as i64);
        for inv in &self.invocations {
            h.word(inv.iterations.len() as i64);
            for it in &inv.iterations {
                h.word(it.key.len() as i64);
                for &k in &it.key {
                    h.word(k);
                }
                h.word(it.write.map_or(-1, i64::from));
            }
        }
        h.finish()
    }
}

/// Incremental FNV-1a content hash used for trace checksums and replay
/// payload derivation — hand-rolled, no external hashing dependency.
#[derive(Debug, Clone)]
pub struct Fnv(u64);

impl Fnv {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// A fresh hasher at the FNV offset basis.
    #[must_use]
    pub fn new() -> Self {
        Fnv(Self::OFFSET)
    }

    /// Folds raw bytes.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(Self::PRIME);
        }
    }

    /// Folds one 64-bit word (little-endian bytes).
    pub fn word(&mut self, w: i64) {
        self.bytes(&w.to_le_bytes());
    }

    /// The digest so far.
    #[must_use]
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv {
    fn default() -> Self {
        Fnv::new()
    }
}

/// Deterministic payload carried by the node replaying `(key, occurrence)`:
/// a positive value derived only from the pair, so replays of the same trace
/// stage bit-identical memory on every backend and host.
#[must_use]
pub fn replay_payload(key: &[i64], occurrence: u32) -> i64 {
    let mut h = Fnv::new();
    for &k in key {
        h.word(k);
    }
    h.word(i64::from(occurrence));
    (h.finish() % 99_991) as i64 + 1
}

/// Seeded mutation knobs for [`fuzz_trace`] — the three axes the conflict
/// subsystem cares about.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FuzzConfig {
    /// RNG seed; everything below is a pure function of `(base, config)`.
    pub seed: u64,
    /// Per-iteration probability of injecting a forward splice write
    /// (a genuine cross-chunk RAW under chunked execution).
    pub splice_rate: f64,
    /// Number of random traversal-order swaps applied per invocation
    /// (re-linking the walk without changing its node population).
    pub relink_depth: usize,
    /// Per-invocation probability of replacing every key with a fresh one
    /// (allocation churn: new addresses, predictability destroyed).
    pub churn_rate: f64,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        FuzzConfig {
            seed: 0xF0_22,
            splice_rate: 0.15,
            relink_depth: 4,
            churn_rate: 0.25,
        }
    }
}

/// Derives a seeded mutant of `base`. The result is always a *valid* trace
/// (splices stay forward and in range); dependence-violating behaviour comes
/// from the splices themselves, not from malformed structure.
#[must_use]
pub fn fuzz_trace(base: &WorkloadTrace, config: &FuzzConfig) -> WorkloadTrace {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut churn_counter: i64 = 0x7F00_0000;
    let mut out = base.clone();
    out.name = format!("{}~fuzz{:#x}", base.name, config.seed);
    for inv in &mut out.invocations {
        // Allocation churn: the whole invocation visits fresh records.
        if rng.gen_bool(config.churn_rate) {
            for it in &mut inv.iterations {
                churn_counter += 1;
                it.key = vec![churn_counter];
            }
        }
        // Re-link: swap random pairs of the traversal order.
        let len = inv.iterations.len();
        if len >= 2 {
            for _ in 0..config.relink_depth {
                let a = rng.gen_range(0..len);
                let b = rng.gen_range(0..len);
                inv.iterations.swap(a, b);
            }
        }
        // Splice: inject forward writes (never out of range).
        for j in 0..len {
            let room = len - 1 - j;
            inv.iterations[j].write = if room > 0 && rng.gen_bool(config.splice_rate) {
                Some(rng.gen_range(1..=room.min(8)) as u32)
            } else {
                None
            };
        }
    }
    out
}

/// Replays a [`WorkloadTrace`] as a first-class [`SpiceWorkload`]: a 3-word
/// `(value, next, target)` list walk re-linked per invocation so that node
/// addresses reproduce the recorded live-in overlap (see module docs).
#[derive(Debug, Clone)]
pub struct TraceReplayWorkload {
    trace: WorkloadTrace,
    arena: Option<RecordArena>,
    /// Per invocation, iteration index → arena slot.
    slot_orders: Vec<Vec<usize>>,
    /// Per slot, the payload value its node carries.
    slot_values: Vec<i64>,
    capacity: usize,
    /// Invocation currently staged in memory.
    staged: usize,
}

impl TraceReplayWorkload {
    /// Builds the replay engine for a validated trace.
    ///
    /// # Errors
    ///
    /// Returns the trace's first structural violation; a replay workload is
    /// never constructed from a malformed trace.
    pub fn new(trace: WorkloadTrace) -> Result<Self, TraceError> {
        trace.validate()?;
        let mut slot_of: HashMap<(Vec<i64>, u32), usize> = HashMap::new();
        let mut slot_values: Vec<i64> = Vec::new();
        let mut slot_orders: Vec<Vec<usize>> = Vec::with_capacity(trace.invocations.len());
        for inv in &trace.invocations {
            let mut occurrence: HashMap<&[i64], u32> = HashMap::new();
            let mut order = Vec::with_capacity(inv.iterations.len());
            for it in &inv.iterations {
                let occ = occurrence.entry(it.key.as_slice()).or_insert(0);
                let slot = *slot_of.entry((it.key.clone(), *occ)).or_insert_with(|| {
                    slot_values.push(replay_payload(&it.key, *occ));
                    slot_values.len() - 1
                });
                *occ += 1;
                order.push(slot);
            }
            slot_orders.push(order);
        }
        let capacity = slot_values.len().max(1);
        Ok(TraceReplayWorkload {
            trace,
            arena: None,
            slot_orders,
            slot_values,
            capacity,
            staged: 0,
        })
    }

    /// The trace being replayed.
    #[must_use]
    pub fn trace(&self) -> &WorkloadTrace {
        &self.trace
    }

    fn arena(&self) -> &RecordArena {
        self.arena.as_ref().expect("build() must be called first")
    }

    /// Stages invocation `inv` in memory: re-links the walk, restores every
    /// visited node's payload (earlier invocations' splices may have dirtied
    /// them) and aims the targets.
    fn stage(&mut self, mem: &mut FlatMemory, inv: usize) {
        self.staged = inv;
        let arena = self.arena.as_ref().expect("built");
        let order = &self.slot_orders[inv];
        let iterations = &self.trace.invocations[inv].iterations;
        for (j, &slot) in order.iter().enumerate() {
            let next = order.get(j + 1).map_or(0, |&s| arena.addr(s));
            arena.write(mem, slot, NEXT, next).expect("in bounds");
            arena
                .write(mem, slot, VALUE, self.slot_values[slot])
                .expect("in bounds");
            let target = iterations[j]
                .write
                .map_or(0, |w| arena.addr(order[j + w as usize]) + VALUE);
            arena.write(mem, slot, TARGET, target).expect("in bounds");
        }
    }

    fn args(&self) -> Vec<i64> {
        let head = self.slot_orders[self.staged]
            .first()
            .map_or(0, |&s| self.arena().addr(s));
        vec![head]
    }

    /// The replay's live-out memory: every slot's value word, in slot
    /// order — what the differential harness compares bit-for-bit across
    /// backends after the final invocation.
    #[must_use]
    pub fn live_out(&self, mem: &FlatMemory) -> Vec<i64> {
        (0..self.slot_values.len())
            .map(|slot| self.arena().read(mem, slot, VALUE).expect("in bounds"))
            .collect()
    }
}

impl SpiceWorkload for TraceReplayWorkload {
    fn name(&self) -> &'static str {
        "trace_replay"
    }

    fn description(&self) -> &'static str {
        "recorded-behaviour list walk; addresses reproduce live-in overlap"
    }

    fn loop_name(&self) -> &'static str {
        "replay_walk"
    }

    fn paper_hotness(&self) -> f64 {
        0.0
    }

    fn conflict_policy(&self) -> spice_ir::exec::ConflictPolicy {
        if self.trace.has_writes() {
            spice_ir::exec::ConflictPolicy::Detect
        } else {
            spice_ir::exec::ConflictPolicy::AssumeIndependent
        }
    }

    fn build(&mut self) -> BuiltKernel {
        let (built, arena) = splice_walk("replay.nodes", "replay_walk", self.capacity);
        self.arena = Some(arena);
        built
    }

    fn init(&mut self, mem: &mut FlatMemory) -> Vec<i64> {
        self.stage(mem, 0);
        self.args()
    }

    fn next_invocation(&mut self, mem: &mut FlatMemory, invocation: usize) -> Option<Vec<i64>> {
        let next = invocation + 1;
        if next >= self.trace.invocations.len() {
            return None;
        }
        self.stage(mem, next);
        Some(self.args())
    }

    /// Host mirror of the staged walk, splices applied in traversal order.
    fn expected_result(&self, mem: &FlatMemory) -> Option<i64> {
        let arena = self.arena();
        let order = &self.slot_orders[self.staged];
        let iterations = &self.trace.invocations[self.staged].iterations;
        let values = order
            .iter()
            .map(|&slot| arena.read(mem, slot, VALUE).expect("in bounds"))
            .collect();
        let targets = iterations
            .iter()
            .enumerate()
            .map(|(j, it)| it.write.map(|w| j + w as usize));
        Some(forward_overwrite_sum(values, targets))
    }

    fn expected_iterations(&self) -> u64 {
        let invs = self.trace.invocations.len().max(1) as u64;
        self.trace.total_iterations() / invs
    }

    fn invocations(&self) -> usize {
        self.trace.invocations.len()
    }
}

/// A compact synthetic trace for tests and smoke runs: `invocations`
/// invocations of `len` iterations whose keys repeat across invocations
/// with probability `predictability` (per invocation, like the churn-list
/// corpus workload).
#[must_use]
pub fn synthetic_trace(
    name: &str,
    invocations: usize,
    len: usize,
    predictability: f64,
    seed: u64,
) -> WorkloadTrace {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut generation: i64 = 0;
    let mut invs = Vec::with_capacity(invocations);
    for i in 0..invocations {
        if i > 0 && !rng.gen_bool(predictability) {
            generation += 1;
        }
        let iterations = (0..len)
            .map(|j| TraceIteration {
                key: vec![generation * 1_000_003 + j as i64 + 1],
                write: None,
            })
            .collect();
        invs.push(TraceInvocation { iterations });
    }
    WorkloadTrace {
        name: name.to_string(),
        loop_name: "synthetic".to_string(),
        site: 0,
        invocations: invs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn replay_sequentially(trace: WorkloadTrace) -> Vec<Option<i64>> {
        let mut wl = TraceReplayWorkload::new(trace).expect("valid trace");
        crate::run_on_interpreter(&mut wl).return_values
    }

    #[test]
    fn synthetic_traces_replay_and_match_the_host_mirror() {
        for p in [0.0, 0.5, 1.0] {
            let t = synthetic_trace("synthetic", 6, 40, p, 0x5EED);
            assert_eq!(t.validate(), Ok(()));
            let returns = replay_sequentially(t);
            assert_eq!(returns.len(), 6);
        }
    }

    #[test]
    fn fuzzed_traces_stay_valid_and_replay() {
        let base = synthetic_trace("base", 5, 32, 0.8, 0xBA5E);
        for seed in 0..8 {
            let mutant = fuzz_trace(
                &base,
                &FuzzConfig {
                    seed,
                    splice_rate: 0.3,
                    relink_depth: 6,
                    churn_rate: 0.4,
                },
            );
            assert_eq!(mutant.validate(), Ok(()), "seed {seed}");
            let _ = replay_sequentially(mutant);
        }
    }

    #[test]
    fn fuzzing_is_deterministic_per_seed() {
        let base = synthetic_trace("base", 4, 16, 0.9, 1);
        let cfg = FuzzConfig {
            seed: 42,
            ..FuzzConfig::default()
        };
        let a = fuzz_trace(&base, &cfg);
        let b = fuzz_trace(&base, &cfg);
        assert_eq!(a, b);
        assert_eq!(a.checksum(), b.checksum());
        let c = fuzz_trace(&base, &FuzzConfig { seed: 43, ..cfg });
        assert_ne!(a.checksum(), c.checksum());
    }

    #[test]
    fn splice_mutants_carry_forward_writes() {
        let base = synthetic_trace("base", 3, 50, 1.0, 2);
        let mutant = fuzz_trace(
            &base,
            &FuzzConfig {
                seed: 7,
                splice_rate: 1.0,
                relink_depth: 0,
                churn_rate: 0.0,
            },
        );
        assert!(mutant.has_writes());
        for inv in &mutant.invocations {
            for (j, it) in inv.iterations.iter().enumerate() {
                if let Some(w) = it.write {
                    assert!(j + (w as usize) < inv.iterations.len());
                    assert!(w >= 1);
                }
            }
        }
    }

    #[test]
    fn validation_rejects_malformed_traces() {
        let mut t = synthetic_trace("t", 2, 4, 1.0, 3);
        t.invocations[1].iterations[0].key.clear();
        assert_eq!(
            t.validate(),
            Err(TraceError::EmptyKey {
                invocation: 1,
                iteration: 0
            })
        );

        let mut t = synthetic_trace("t", 1, 4, 1.0, 3);
        t.invocations[0].iterations[3].write = Some(1);
        assert!(matches!(
            t.validate(),
            Err(TraceError::WriteOutOfRange { .. })
        ));
        assert!(TraceReplayWorkload::new(t).is_err());

        let t = WorkloadTrace {
            name: String::new(),
            loop_name: "l".into(),
            site: 0,
            invocations: vec![TraceInvocation::default()],
        };
        assert_eq!(t.validate(), Err(TraceError::EmptyName));
    }

    #[test]
    fn slot_mapping_is_stable_across_invocations() {
        // A fully predictable trace must reuse the same slots every
        // invocation — that is what preserves measured predictability.
        let t = synthetic_trace("stable", 4, 10, 1.0, 9);
        let wl = TraceReplayWorkload::new(t).unwrap();
        assert_eq!(wl.slot_values.len(), 10);
        for inv in 1..wl.slot_orders.len() {
            assert_eq!(wl.slot_orders[0], wl.slot_orders[inv]);
        }
    }
}
