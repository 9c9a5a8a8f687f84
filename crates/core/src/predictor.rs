//! The Spice value predictor's shared state, reference planner, and
//! host-side *read-only* mirrors.
//!
//! The predictor has two halves (paper §4, Algorithm 2), and — as of the
//! on-core port — **both run on the measured substrate**:
//!
//! * a **distributed** half — code emitted into every thread that counts the
//!   work it performs and memoizes the loop-carried live-ins into the
//!   *speculated values array* (`sva`) whenever its work counter crosses the
//!   next threshold in its `svat` list, writing to the `sva` row named by its
//!   `svai` list;
//! * a **centralized** half — run on core 0 at the start of every loop
//!   invocation, before the `new_invocation` message releases the workers: it
//!   reads the per-thread work counters of the previous invocation, resets
//!   the shared arrays, and writes the threshold/row lists that balance the
//!   next invocation's chunks.
//!
//! Both halves are generated by [`crate::transform::SpiceTransform`]; their
//! cycles and channel traffic appear in the simulator's per-core reports.
//! The shared-memory arrays (`sva`, `svat`, `svai`, `work` and the
//! centralized step's scratch) are only ever touched by simulated code, and
//! each word some thread stores is one some thread loads: the host reads
//! them for reports, but no word exists only for the host.
//!
//! What remains here is pure bookkeeping the host may do without writing:
//!
//! * [`PredictorLayout`] — where the arrays live inside a transformed
//!   program (consumed by the transformation and by the read-only mirrors);
//! * [`plan`] — the centralized step's placement computation as
//!   [`Assignment`]s: a thin adapter over the one planner,
//!   [`chunk_memo_plan`](spice_runtime::chunk_memo_plan), which the emitted
//!   IR must agree with assignment-for-assignment; the backend-equivalence
//!   property tests enforce this;
//! * [`read_plan`] / [`read_work`] — reconstruct, from shared memory, the
//!   plan the simulated centralized step wrote and the per-thread work
//!   counters the distributed half stored, for reports and cross-checks.

use serde::{Deserialize, Serialize};

use spice_ir::exec::{Throttle, MAX_CONFLICT_GRANULARITY_LOG2};
use spice_ir::interp::FlatMemory;
use spice_ir::{Program, TrapKind};

/// Sentinel threshold meaning "never memoize" (the paper's ∞ entry).
pub const NEVER: i64 = i64::MAX;

/// Addresses of the predictor's shared-memory arrays inside a transformed
/// program.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PredictorLayout {
    /// Total threads (main + speculative).
    pub threads: usize,
    /// Number of speculated live-in registers (`m` in the paper): the width
    /// of one `sva` row.
    pub spec_width: usize,
    /// Capacity of each per-thread `svat`/`svai` list.
    pub max_entries: usize,
    /// Base address of the speculated values array
    /// (`(threads - 1) × spec_width` words).
    pub sva_base: i64,
    /// Base address of the per-thread threshold lists
    /// (`threads × max_entries` words).
    pub svat_base: i64,
    /// Base address of the per-thread `sva` row-index lists
    /// (`threads × max_entries` words).
    pub svai_base: i64,
    /// Base address of the per-thread work counters (`threads` words).
    pub work_base: i64,
    /// Base address of the centralized step's per-thread list-write cursors
    /// (`threads` words of scratch, reset every invocation by core 0).
    pub cidx_base: i64,
    /// Address of the memoize-once flag (set by the centralized step after
    /// its first produced plan when re-memoization is disabled).
    pub flag_base: i64,
    /// Address of the dependence-violation throttle's two words
    /// ([`spice_ir::exec::Throttle`]): `streak`, then `skip`. Only core 0
    /// touches them, and only in a loop generated with conflict detection.
    pub throttle_base: i64,
}

impl PredictorLayout {
    /// Allocates the predictor arrays as globals of `program`, seeding
    /// thread 0's work counter with `initial_work` (when given) so the very
    /// first centralized step already has a work model to plan from (the
    /// paper's first-invocation estimate).
    ///
    /// Conflict detection watches these words like any other, so the
    /// arrays sit in two slabs that share no detection grain with program
    /// data or with each other, up to 64-word grains (`SLAB_WORDS`): the
    /// *epoch-read* slab (`svat`, `svai`: core 0 writes them before the
    /// release, workers read them during the epoch) and the
    /// *epoch-written* slab (`sva`, `work`, `cidx`, the flag, the
    /// throttle's `streak` and `skip`). Each slab
    /// starts on a multiple of 64 words, and padding takes the last
    /// one's end to the next multiple (false sharing removed by layout, as
    /// in Torrellas, Lam and Hennessy, IEEE TC 1994).
    ///
    /// # Panics
    ///
    /// Panics if `threads < 2` or `spec_width == 0`.
    #[must_use]
    pub fn allocate_seeded(
        program: &mut Program,
        threads: usize,
        spec_width: usize,
        initial_work: Option<u64>,
    ) -> Self {
        assert!(threads >= 2, "Spice needs at least two threads");
        assert!(
            spec_width > 0,
            "at least one speculated live-in is required"
        );
        let max_entries = threads; // at most threads-1 boundaries, +1 for the sentinel
        pad_to_slab(program);
        let svat_base = program.add_global_init(
            "spice.svat",
            (threads * max_entries) as i64,
            vec![NEVER; threads * max_entries],
        );
        let svai_base = program.add_global("spice.svai", (threads * max_entries) as i64);
        pad_to_slab(program);
        let sva_base = program.add_global("spice.sva", ((threads - 1) * spec_width) as i64);
        let mut work_init = vec![0i64; threads];
        if let Some(est) = initial_work {
            work_init[0] = i64::try_from(est).unwrap_or(i64::MAX);
        }
        let work_base = program.add_global_init("spice.work", threads as i64, work_init);
        let cidx_base = program.add_global("spice.cidx", threads as i64);
        let flag_base = program.add_global("spice.memoflag", 1);
        let throttle_base = program.add_global("spice.throttle", 2);
        pad_to_slab(program);
        PredictorLayout {
            threads,
            spec_width,
            max_entries,
            sva_base,
            svat_base,
            svai_base,
            work_base,
            cidx_base,
            flag_base,
            throttle_base,
        }
    }

    /// Address of element `j` of `sva` row `row`.
    #[must_use]
    pub fn sva_addr(&self, row: usize, j: usize) -> i64 {
        self.sva_base + (row * self.spec_width + j) as i64
    }

    /// Address of entry `idx` of thread `tid`'s threshold list.
    #[must_use]
    pub fn svat_addr(&self, tid: usize, idx: usize) -> i64 {
        self.svat_base + (tid * self.max_entries + idx) as i64
    }

    /// Address of entry `idx` of thread `tid`'s `sva`-row-index list.
    #[must_use]
    pub fn svai_addr(&self, tid: usize, idx: usize) -> i64 {
        self.svai_base + (tid * self.max_entries + idx) as i64
    }

    /// Address of thread `tid`'s work counter.
    #[must_use]
    pub fn work_addr(&self, tid: usize) -> i64 {
        self.work_base + tid as i64
    }

    /// Address of thread `tid`'s centralized-step list cursor.
    #[must_use]
    pub fn cidx_addr(&self, tid: usize) -> i64 {
        self.cidx_base + tid as i64
    }

    /// Address of the throttle's `streak` word.
    #[must_use]
    pub fn streak_addr(&self) -> i64 {
        self.throttle_base
    }

    /// Address of the throttle's `skip` word.
    #[must_use]
    pub fn skip_addr(&self) -> i64 {
        self.throttle_base + 1
    }

    /// The half-open address range `[lo, hi)` of both slabs, padding
    /// included; `lo` and `hi` are multiples of 64 words. Only tests read
    /// it, to watch the predictor's words.
    #[must_use]
    pub fn address_range(&self) -> (i64, i64) {
        (self.svat_base, align_up(self.skip_addr() + 1))
    }
}

/// Words in the coarsest conflict-detection grain a backend accepts
/// ([`MAX_CONFLICT_GRANULARITY_LOG2`]). A layout constant, not an option, so
/// the transform does not depend on the granularity.
const SLAB_WORDS: i64 = 1 << MAX_CONFLICT_GRANULARITY_LOG2;

/// `addr` rounded up to a multiple of [`SLAB_WORDS`].
fn align_up(addr: i64) -> i64 {
    addr + (-addr).rem_euclid(SLAB_WORDS)
}

/// Pads `program`'s globals so the next one starts on a slab boundary.
fn pad_to_slab(program: &mut Program) {
    let end = program.data_end();
    if align_up(end) > end {
        program.add_global("spice.pad", align_up(end) - end);
    }
}

/// Tuning knobs of the predictor (the ablation dimensions discussed in the
/// paper's §4 and §5). Consumed at *transform time*: the choices are baked
/// into the centralized-step code generated on core 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PredictorOptions {
    /// Re-memoize the live-ins on every invocation (the paper's preferred
    /// strategy). When `false`, memoization stops after the first invocation
    /// that produced predictions — the "trivial strategy" the paper warns
    /// against.
    pub rememoize: bool,
    /// Use the observed per-thread work distribution to place the chunk
    /// boundaries (dynamic load balancing). When `false`, every boundary is
    /// assigned to the main thread assuming it will execute all iterations.
    pub load_balance: bool,
}

impl Default for PredictorOptions {
    fn default() -> Self {
        PredictorOptions {
            rememoize: true,
            load_balance: true,
        }
    }
}

/// One threshold assignment: thread `tid` memoizes the live-ins into `sva`
/// row `row` once its local work counter reaches `threshold`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Assignment {
    /// Thread that performs the memoization.
    pub tid: usize,
    /// Local work threshold.
    pub threshold: i64,
    /// Destination `sva` row.
    pub row: usize,
}

/// The centralized step's placement computation (Algorithm 2) in
/// [`Assignment`] form: given the per-thread work of the previous
/// invocation, decide which thread memoizes which chunk boundary so the
/// next invocation's chunks come out balanced.
///
/// The algorithm itself is `spice_runtime::chunk_memo_plan` — the native
/// backend's planner, and the semantic contract the IR generated by
/// [`crate::transform::SpiceTransform`] implements; the backend-equivalence
/// tests pin the generated IR to it. This adapter only chooses the work
/// distribution the options ask for and flattens the per-thread lists,
/// ordered by `sva` row.
#[must_use]
pub fn plan(threads: usize, options: &PredictorOptions, work: &[u64]) -> Vec<Assignment> {
    // Without load balancing, pretend the main thread will execute
    // everything.
    let pinned;
    let dist = if options.load_balance {
        work
    } else {
        pinned = [work.iter().sum()];
        &pinned[..]
    };
    let mut out: Vec<Assignment> = spice_runtime::chunk_memo_plan(dist, threads)
        .into_iter()
        .enumerate()
        .flat_map(|(tid, list)| {
            list.into_iter().map(move |(threshold, row)| Assignment {
                tid,
                threshold: i64::try_from(threshold).unwrap_or(i64::MAX),
                row,
            })
        })
        .collect();
    out.sort_by_key(|a| a.row);
    out
}

/// Reconstructs, from shared memory, the plan the simulated centralized step
/// wrote for the current invocation. Each thread's list is scanned exactly
/// as the distributed half consumes it: strictly forward from entry 0,
/// stopping at the first ∞ sentinel (entries beyond a sentinel are
/// unreachable and may hold stale values from older invocations). The
/// result is ordered by `sva` row. A pure read — the host never writes the
/// arrays.
///
/// # Errors
///
/// Propagates memory faults (which indicate a corrupted layout).
pub fn read_plan(layout: &PredictorLayout, mem: &FlatMemory) -> Result<Vec<Assignment>, TrapKind> {
    let mut out = Vec::new();
    for tid in 0..layout.threads {
        for idx in 0..layout.max_entries {
            let threshold = mem.read(layout.svat_addr(tid, idx))?;
            if threshold == NEVER {
                break;
            }
            let row = mem.read(layout.svai_addr(tid, idx))?.max(0) as usize;
            out.push(Assignment {
                tid,
                threshold,
                row,
            });
        }
    }
    out.sort_by_key(|a| a.row);
    Ok(out)
}

/// Reads back every thread's work counter after an invocation — the
/// feedback the next centralized step will consume, surfaced for reports.
///
/// # Errors
///
/// Propagates memory faults (which indicate a corrupted layout).
pub fn read_work(layout: &PredictorLayout, mem: &FlatMemory) -> Result<Vec<u64>, TrapKind> {
    (0..layout.threads)
        .map(|tid| Ok(mem.read(layout.work_addr(tid))?.max(0) as u64))
        .collect()
}

/// Reads back the throttle's two words — what the next invocation's
/// centralized step will consult, surfaced for reports and cross-checks.
///
/// # Errors
///
/// Propagates memory faults (which indicate a corrupted layout).
pub fn read_throttle(layout: &PredictorLayout, mem: &FlatMemory) -> Result<Throttle, TrapKind> {
    let word = |addr| Ok::<u64, TrapKind>(mem.read(addr)?.max(0) as u64);
    Ok(Throttle {
        streak: word(layout.streak_addr())?,
        skip: word(layout.skip_addr())?,
    })
}

#[cfg(test)]
mod tests {
    use std::collections::{BTreeMap, BTreeSet};

    use super::*;

    fn layout(threads: usize, width: usize) -> (Program, PredictorLayout) {
        let mut p = Program::new();
        let l = PredictorLayout::allocate_seeded(&mut p, threads, width, None);
        (p, l)
    }

    /// Every word of the two slabs, each tagged with whether it is
    /// epoch-read (`svat`, `svai`).
    fn slab_words(l: &PredictorLayout) -> Vec<(i64, bool)> {
        let lists = (0..l.threads).flat_map(|t| (0..l.max_entries).map(move |i| (t, i)));
        let read = lists.flat_map(|(t, i)| [l.svat_addr(t, i), l.svai_addr(t, i)]);
        let rows = (0..l.threads - 1).flat_map(|r| (0..l.spec_width).map(move |j| (r, j)));
        let written = rows
            .map(|(r, j)| l.sva_addr(r, j))
            .chain((0..l.threads).flat_map(|t| [l.work_addr(t), l.cidx_addr(t)]))
            .chain([l.flag_base, l.streak_addr(), l.skip_addr()]);
        read.map(|a| (a, true))
            .chain(written.map(|a| (a, false)))
            .collect()
    }

    #[test]
    fn layout_addresses_do_not_overlap() {
        for threads in 2..=8 {
            for width in 1..=3 {
                let mut p = Program::new();
                p.add_global("data", 37);
                assert_ne!(p.data_end() % SLAB_WORDS, 0);
                let l = PredictorLayout::allocate_seeded(&mut p, threads, width, None);
                let label = format!("{threads} threads, width {width}");
                let (lo, hi) = l.address_range();
                for edge in [l.svat_base, l.sva_base, hi] {
                    assert_eq!(edge % SLAB_WORDS, 0, "{label}: {edge} is not aligned");
                }
                assert_eq!(hi, p.data_end(), "{label}");
                let words = slab_words(&l);
                let distinct: BTreeSet<i64> = words.iter().map(|&(a, _)| a).collect();
                assert_eq!(distinct.len(), words.len(), "{label}: words overlap");
                let mut grains: BTreeMap<i64, BTreeSet<bool>> = BTreeMap::new();
                for &(addr, read) in &words {
                    assert!(lo <= addr && addr < hi, "{label}: {addr} outside the range");
                    grains.entry(addr / SLAB_WORDS).or_default().insert(read);
                }
                assert!(
                    grains.values().all(|kinds| kinds.len() == 1),
                    "{label}: a grain holds epoch-read and epoch-written words"
                );
                assert!(
                    p.globals
                        .iter()
                        .filter(|g| !g.name.starts_with("spice."))
                        .all(|g| g.base + g.words <= lo),
                    "{label}: a program word shares a grain with the range"
                );
            }
        }
    }

    #[test]
    fn seeded_allocation_initializes_work_and_sentinels() {
        let mut p = Program::new();
        let l = PredictorLayout::allocate_seeded(&mut p, 3, 1, Some(42));
        let mem = FlatMemory::for_program(&p, 64);
        assert_eq!(mem.read(l.work_addr(0)).unwrap(), 42);
        assert_eq!(mem.read(l.work_addr(1)).unwrap(), 0);
        assert_eq!(mem.read(l.svat_addr(0, 0)).unwrap(), NEVER);
        assert_eq!(mem.read(l.svat_addr(2, 2)).unwrap(), NEVER);
        assert_eq!(mem.read(l.flag_base).unwrap(), 0);
        assert_eq!(read_throttle(&l, &mem).unwrap(), Throttle::default());
    }

    #[test]
    fn paper_example_assignment() {
        // Paper §4 example: three threads did 10, 1 and 1 units of work.
        // Total 12, boundaries at 4 and 8, both inside thread 0's range, so
        // thread 0 gets thresholds [4, 8] writing rows [0, 1].
        let p = plan(3, &PredictorOptions::default(), &[10, 1, 1]);
        assert_eq!(
            p,
            vec![
                Assignment {
                    tid: 0,
                    threshold: 4,
                    row: 0
                },
                Assignment {
                    tid: 0,
                    threshold: 8,
                    row: 1
                },
            ]
        );
    }

    #[test]
    fn balanced_work_spreads_assignments() {
        let p = plan(4, &PredictorOptions::default(), &[100, 100, 100, 100]);
        assert_eq!(p.len(), 3);
        // Each boundary lands at the very end of thread k's range, expressed
        // as a local threshold of ~100 within that thread.
        assert_eq!(p[0].tid, 0);
        assert_eq!(p[1].tid, 1);
        assert_eq!(p[2].tid, 2);
        for (k, a) in p.iter().enumerate() {
            assert_eq!(a.row, k);
            assert!(a.threshold >= 99 && a.threshold <= 100);
        }
    }

    #[test]
    fn no_load_balance_pins_everything_to_main() {
        let options = PredictorOptions {
            load_balance: false,
            ..PredictorOptions::default()
        };
        let p = plan(4, &options, &[10, 100, 100, 100]);
        assert!(p.iter().all(|a| a.tid == 0));
    }

    #[test]
    fn zero_work_produces_no_plan() {
        assert!(plan(4, &PredictorOptions::default(), &[0, 0, 0, 0]).is_empty());
    }

    #[test]
    fn read_plan_round_trips_written_lists() {
        let (program, l) = layout(3, 2);
        let mut mem = FlatMemory::for_program(&program, 1024);
        // Write a two-assignment plan by hand, exactly as the simulated
        // centralized step would: ascending per-thread slots.
        mem.write(l.svat_addr(0, 0), 10).unwrap();
        mem.write(l.svai_addr(0, 0), 0).unwrap();
        mem.write(l.svat_addr(1, 0), 7).unwrap();
        mem.write(l.svai_addr(1, 0), 1).unwrap();
        let p = read_plan(&l, &mem).unwrap();
        assert_eq!(
            p,
            vec![
                Assignment {
                    tid: 0,
                    threshold: 10,
                    row: 0
                },
                Assignment {
                    tid: 1,
                    threshold: 7,
                    row: 1
                },
            ]
        );
    }

    #[test]
    fn read_work_reports_every_counter() {
        let (program, l) = layout(4, 1);
        let mut mem = FlatMemory::for_program(&program, 1024);
        mem.write(l.work_addr(0), 60).unwrap();
        mem.write(l.work_addr(2), 15).unwrap();
        assert_eq!(read_work(&l, &mem).unwrap(), vec![60, 0, 15, 0]);
    }

    #[test]
    #[should_panic(expected = "at least two threads")]
    fn single_thread_layout_rejected() {
        let mut p = Program::new();
        let _ = PredictorLayout::allocate_seeded(&mut p, 1, 1, None);
    }
}
