//! Per-core speculative store buffer.
//!
//! This models the hardware support the paper assumes in §3 ("Speculative
//! State"): while a core executes speculatively, its stores are buffered and
//! can either be committed to shared memory (speculation succeeded) or
//! discarded (squash). Loads by the speculative core see its own buffered
//! stores; other cores do not. The other half of §3, "Conflict Detection",
//! is the machine's `ConflictTracker`: it records exactly the speculative
//! loads this buffer does *not* forward.
//!
//! The buffer is on the simulator's per-access hot path, so its container is
//! the reusable dense structure from `spice_ir::exec`: an insertion-ordered
//! open-addressed [`DenseMap`] (its entry order *is* the first-write commit
//! order). Commit and abort clear it without releasing storage, so one
//! buffer serves every chunk a core runs.

use spice_ir::exec::DenseMap;

/// A speculative store buffer.
#[derive(Debug, Clone, Default)]
pub struct SpecBuffer {
    active: bool,
    writes: DenseMap<i64>,
    stores_buffered: u64,
}

impl SpecBuffer {
    /// Creates an inactive, empty buffer.
    #[must_use]
    pub fn new() -> Self {
        SpecBuffer::default()
    }

    /// Whether the core is currently executing speculatively.
    #[must_use]
    pub fn is_active(&self) -> bool {
        self.active
    }

    /// Enters speculative execution. Re-entering while already active keeps
    /// the current buffered state (nested begins are flattened).
    pub fn begin(&mut self) {
        self.active = true;
    }

    /// Records a speculative store.
    ///
    /// Returns `true` if the store was buffered (speculation active) and
    /// `false` if the caller must perform it directly against shared memory.
    pub fn store(&mut self, addr: i64, value: i64) -> bool {
        if !self.active {
            return false;
        }
        self.writes.insert(addr, value);
        self.stores_buffered += 1;
        true
    }

    /// Observes a speculative load: returns the buffered value if this core
    /// wrote `addr` speculatively. Such a store-forwarded load returns this
    /// core's own (logically newer) value and can never observe a stale
    /// word; a `None` sends the caller to shared memory, and — while the
    /// buffer is active — into the conflict detector's read set.
    pub fn load(&self, addr: i64) -> Option<i64> {
        // Most speculative loads run before the chunk's first store: with
        // nothing buffered there is nothing to hash for.
        if !self.active || self.writes.is_empty() {
            return None;
        }
        self.writes.get(addr)
    }

    /// Leaves speculative execution, returning the buffered writes in first
    /// write order so the caller can apply them to shared memory.
    pub fn take_commit(&mut self) -> Vec<(i64, i64)> {
        let out: Vec<(i64, i64)> = self.writes.entries().to_vec();
        self.clear();
        out
    }

    /// Leaves speculative execution, discarding all buffered state.
    pub fn abort(&mut self) {
        self.clear();
    }

    /// Fully resets the buffer for a fresh loop invocation — like
    /// [`SpecBuffer::abort`], but also zeroing the lifetime statistics —
    /// while keeping the allocated storage for reuse.
    pub fn reset(&mut self) {
        self.clear();
        self.stores_buffered = 0;
    }

    fn clear(&mut self) {
        self.active = false;
        self.writes.clear();
    }

    /// Number of stores buffered over the lifetime of the buffer (not reset
    /// by commit/abort; used for statistics).
    #[must_use]
    pub fn stores_buffered(&self) -> u64 {
        self.stores_buffered
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inactive_buffer_passes_stores_through() {
        let mut b = SpecBuffer::new();
        assert!(!b.store(10, 1));
        assert_eq!(b.load(10), None);
    }

    #[test]
    fn active_buffer_captures_stores_and_forwards_to_loads() {
        let mut b = SpecBuffer::new();
        b.begin();
        assert!(b.is_active());
        assert!(b.store(10, 1));
        assert!(b.store(11, 2));
        assert_eq!(b.load(10), Some(1));
        assert_eq!(b.load(99), None); // not written here -> caller reads memory
    }

    #[test]
    fn commit_returns_writes_in_first_write_order() {
        let mut b = SpecBuffer::new();
        b.begin();
        b.store(20, 1);
        b.store(10, 2);
        b.store(20, 3); // overwrite keeps original position
        let commit = b.take_commit();
        assert_eq!(commit, vec![(20, 3), (10, 2)]);
        assert!(!b.is_active());
        // Commit ends the chunk's epoch: the next one starts empty.
        b.begin();
        assert_eq!(b.load(20), None);
        assert!(b.take_commit().is_empty());
    }

    #[test]
    fn abort_discards_everything() {
        let mut b = SpecBuffer::new();
        b.begin();
        b.store(10, 1);
        b.abort();
        assert!(!b.is_active());
        assert!(b.take_commit().is_empty());
        // Statistics survive for reporting.
        assert_eq!(b.stores_buffered(), 1);
        // A full invocation reset zeroes them too, reusing the buffers.
        b.reset();
        assert_eq!(b.stores_buffered(), 0);
    }

    #[test]
    fn nested_begin_is_flattened() {
        let mut b = SpecBuffer::new();
        b.begin();
        b.store(1, 1);
        b.begin();
        assert_eq!(b.load(1), Some(1));
    }
}
