//! Cross-chunk conflict detection (paper §3, "Conflict Detection") — the
//! sets, the `spec.check` verdicts and nothing else. What a squash is
//! *explained* with lives in [`crate::observe`], which reads this module
//! through [`ConflictTracker::overlap`] and [`ConflictTracker::verdict`].

use std::cell::{Cell, RefCell};

use spice_ir::exec::AccessSet;

/// The memory system's cross-chunk conflict detection: per-core speculative
/// read sets kept as [`AccessSet`]s, plus the union of every write committed
/// during the current loop invocation ("epoch") — the main thread's direct
/// stores and the buffers of committed speculative chunks. The epoch opens
/// at the invocation's first channel send, which releases the workers, and
/// closes at [`ConflictTracker::clear_epoch`]. A `spec.check`
/// instruction asks whether a core's read set intersects the epoch's
/// committed writes; a positive verdict is sticky for the epoch so it can be
/// attributed in the per-core report. Interior mutability because the query
/// runs inside another core's instruction step (the machine is
/// single-threaded; every borrow is short-lived).
///
/// Only loads that missed the core's own store buffer are recorded
/// (`CoreMemPort::load`): a store-forwarded load returns the core's own,
/// logically newer value and can never observe a stale word.
#[derive(Debug, Clone)]
pub(crate) struct ConflictTracker {
    enabled: bool,
    /// Whether the epoch is open: some core has sent on a channel since
    /// [`ConflictTracker::clear_epoch`]. In a Spice loop the first send is
    /// core 0's first row send in `spice.dispatch` — the first word of
    /// worker 1's `new_invocation` message, which it blocks on — and between
    /// it and the loop header the main thread stores nothing (it loads the
    /// predictor rows and sends). So the entry code's stores (e.g.
    /// `mcf_app`'s tree relink, into the links the speculative walk later
    /// reads) are in no write set, and every main-chunk store is,
    /// even one that lands before a worker reads the word: conservative on
    /// purpose, like the native main chunk's write set, so that a verdict
    /// does not depend on the machine's latencies.
    open: Cell<bool>,
    epoch_writes: RefCell<AccessSet>,
    read_sets: RefCell<Vec<AccessSet>>,
    /// First conflicting word address found per core this epoch, if any.
    verdicts: RefCell<Vec<Option<i64>>>,
}

impl ConflictTracker {
    pub(crate) fn new(cores: usize, enabled: bool, granularity_log2: u8) -> Self {
        ConflictTracker {
            enabled,
            open: Cell::new(false),
            epoch_writes: RefCell::new(AccessSet::with_granularity(granularity_log2)),
            read_sets: RefCell::new(vec![AccessSet::with_granularity(granularity_log2); cores]),
            verdicts: RefCell::new(vec![None; cores]),
        }
    }

    /// Records a speculative load that missed the core's own store buffer.
    /// Returns whether the address entered the core's read set.
    pub(crate) fn record_read(&self, core: usize, addr: i64) -> bool {
        if self.enabled {
            self.read_sets.borrow_mut()[core].insert(addr);
        }
        self.enabled
    }

    /// Records a write that became architectural (a non-speculative store or
    /// one address of a committed speculative buffer), once the epoch is
    /// open — see the `open` field. Returns whether the address entered the
    /// epoch's committed-write set.
    pub(crate) fn record_write(&self, addr: i64) -> bool {
        let tracked = self.enabled && self.open.get();
        if tracked {
            self.epoch_writes.borrow_mut().insert(addr);
        }
        tracked
    }

    /// Opens the epoch (a channel send retired).
    pub(crate) fn open_epoch(&self) {
        self.open.set(true);
    }

    /// Ends a core's speculative chunk (commit or abort): its read set is
    /// consumed; the verdict, if any, stays for reporting.
    pub(crate) fn end_chunk(&self, core: usize) {
        if self.enabled {
            self.read_sets.borrow_mut()[core].clear();
        }
    }

    /// What `core`'s read set shares with the epoch's committed writes right
    /// now, at the detection granularity: the first shared grain's base
    /// address and how many grains are shared. Read-only — the one view of
    /// the sets a squash is explained from, valid until
    /// [`ConflictTracker::end_chunk`] consumes the read set.
    pub(crate) fn overlap(&self, core: usize) -> Option<(i64, u64)> {
        let reads = self.read_sets.borrow();
        let writes = self.epoch_writes.borrow();
        let set = reads.get(core)?;
        let first = set.first_overlap(&writes)?;
        Some((first, set.overlap_count(&writes) as u64))
    }

    /// Answers a `spec.check`: 1 if `core`'s read set intersects the writes
    /// committed so far this epoch.
    pub(crate) fn query(&self, core: i64) -> i64 {
        if !self.enabled {
            return 0;
        }
        let Ok(idx) = usize::try_from(core) else {
            return 0;
        };
        let reads = self.read_sets.borrow();
        let Some(set) = reads.get(idx) else { return 0 };
        match set.first_overlap(&self.epoch_writes.borrow()) {
            Some(addr) => {
                self.verdicts.borrow_mut()[idx].get_or_insert(addr);
                1
            }
            None => 0,
        }
    }

    pub(crate) fn verdict(&self, core: usize) -> Option<i64> {
        self.verdicts.borrow().get(core).copied().flatten()
    }

    /// Starts a new epoch (loop invocation): all sets and verdicts reset.
    pub(crate) fn clear_epoch(&self) {
        self.open.set(false);
        self.epoch_writes.borrow_mut().clear();
        for s in self.read_sets.borrow_mut().iter_mut() {
            s.clear();
        }
        for v in self.verdicts.borrow_mut().iter_mut() {
            *v = None;
        }
    }
}
