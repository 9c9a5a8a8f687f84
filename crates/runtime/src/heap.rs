//! A shared word heap with speculative write buffering for real OS threads.
//!
//! The timing simulator in `spice-sim` models the paper's hardware support
//! for speculative state; this module provides the same contract in software
//! for native execution: concurrent threads read a shared flat heap, the
//! non-speculative main thread writes it directly, and speculative workers
//! buffer their writes privately until the Spice protocol decides to commit
//! or squash them.
//!
//! The shared storage uses interior mutability (`UnsafeCell`) because the
//! ownership structure — "exactly one thread may write any given word
//! non-speculatively during an invocation, everyone may read" — is a dynamic
//! protocol property the borrow checker cannot see. All unsafety is confined
//! to [`SharedHeap`]; the public surface is safe except for
//! [`SharedHeap::write`], whose contract documents the protocol requirement.

use std::cell::UnsafeCell;

use spice_ir::exec::{AccessSet, DenseMap};

/// A flat, word-addressable heap shared by the Spice threads of one loop.
#[derive(Debug)]
pub struct SharedHeap {
    words: UnsafeCell<Box<[i64]>>,
    len: usize,
}

// SAFETY: concurrent access is governed by the Spice execution protocol (see
// the module documentation): reads may race only with the single
// non-speculative writer of a word, and the values involved are plain `i64`s
// written and read with volatile-free, word-sized accesses. The protocol
// guarantees that any word a thread reads for a *correctness-critical*
// decision is either thread-private or stable for the duration of the read.
unsafe impl Sync for SharedHeap {}

impl SharedHeap {
    /// Creates a zeroed heap of `len` words.
    #[must_use]
    pub fn new(len: usize) -> Self {
        SharedHeap {
            words: UnsafeCell::new(vec![0i64; len].into_boxed_slice()),
            len,
        }
    }

    /// Number of words.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the heap has zero words.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Reads word `addr`, or `None` if out of bounds (a speculative thread
    /// chasing a dangling prediction must fault gracefully, not crash the
    /// process).
    #[must_use]
    pub fn read(&self, addr: i64) -> Option<i64> {
        let idx = usize::try_from(addr).ok()?;
        if idx >= self.len {
            return None;
        }
        // SAFETY: idx is in bounds; see the `Sync` justification above for
        // why a concurrent read is acceptable under the execution protocol.
        unsafe { Some((*self.words.get())[idx]) }
    }

    /// Writes word `addr`.
    ///
    /// # Safety
    ///
    /// The caller must be the only thread writing `addr` at this moment and
    /// no other thread may be relying on reading a stable value from `addr`
    /// concurrently — in the Spice protocol this holds for the
    /// non-speculative main thread and for ordered commits of validated
    /// speculative buffers.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is out of bounds (non-speculative writes to invalid
    /// addresses are always a harness bug).
    pub unsafe fn write(&self, addr: i64, value: i64) {
        let idx = usize::try_from(addr).expect("non-speculative write out of bounds");
        assert!(idx < self.len, "non-speculative write out of bounds");
        (*self.words.get())[idx] = value;
    }

    /// Fills `[base, base + values.len())` with `values` (single-threaded
    /// setup helper).
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn fill(&mut self, base: i64, values: &[i64]) {
        let idx = usize::try_from(base).expect("base in bounds");
        let slice = self.words.get_mut();
        slice[idx..idx + values.len()].copy_from_slice(values);
    }

    /// Exclusive view of every word (single-threaded phases only — the
    /// `&mut` receiver guarantees no worker holds a reference).
    #[must_use]
    pub fn words_mut(&mut self) -> &mut [i64] {
        self.words.get_mut()
    }

    /// Overwrites the whole heap from `src` — the between-invocations mirror
    /// of a mutated canonical memory image into a *persistent* shared heap.
    ///
    /// # Safety
    ///
    /// The caller must be in a single-threaded phase: no worker may be
    /// reading or writing any word concurrently (in the Spice runtime this
    /// holds between invocations, after every worker has reported its chunk).
    ///
    /// # Panics
    ///
    /// Panics if `src.len()` differs from the heap length.
    pub unsafe fn overwrite(&self, src: &[i64]) {
        let words = &mut *self.words.get();
        assert_eq!(src.len(), words.len(), "heap image length changed");
        words.copy_from_slice(src);
    }

    /// Copies the whole heap into `dst` — the post-invocation commit of the
    /// shared heap back into the canonical memory image.
    ///
    /// # Safety
    ///
    /// Same single-threaded-phase contract as [`SharedHeap::overwrite`].
    ///
    /// # Panics
    ///
    /// Panics if `dst.len()` differs from the heap length.
    pub unsafe fn snapshot_into(&self, dst: &mut [i64]) {
        let words = &*self.words.get();
        assert_eq!(dst.len(), words.len(), "heap image length changed");
        dst.copy_from_slice(words);
    }
}

/// A speculative view of a [`SharedHeap`]: reads see the thread's own
/// buffered writes first, writes are buffered and never touch shared memory
/// until [`SpecView::into_writes`] hands them to the committer.
///
/// With read tracking enabled ([`SpecView::with_read_tracking`]), the view
/// additionally records its *load set* — every address read through
/// [`SpecView::read_tracked`] that was **not** satisfied by the thread's own
/// store buffer — as an [`AccessSet`]. This is the per-chunk half of the
/// memory-dependence speculation subsystem: at commit time the runtime
/// intersects a chunk's load set against the write sets of logically earlier
/// chunks and squashes on overlap (a RAW violation). Store-forwarded reads
/// are excluded because they can never observe a stale value.
#[derive(Debug)]
pub struct SpecView<'h> {
    heap: &'h SharedHeap,
    /// Buffered writes in an insertion-ordered open-addressed map — its
    /// entry order is the first-write order an ordered commit needs, with no
    /// hashing overhead on the per-store path.
    writes: DenseMap<i64>,
    reads: AccessSet,
    track_reads: bool,
}

impl<'h> SpecView<'h> {
    /// Creates an empty speculative view without read tracking.
    #[must_use]
    pub fn new(heap: &'h SharedHeap) -> Self {
        SpecView {
            heap,
            writes: DenseMap::new(),
            reads: AccessSet::new(),
            track_reads: false,
        }
    }

    /// Creates an empty speculative view, recording the load set when
    /// `track` is set (the [`spice_ir::exec::ConflictPolicy::Detect`] mode).
    #[must_use]
    pub fn with_read_tracking(heap: &'h SharedHeap, track: bool) -> Self {
        SpecView {
            track_reads: track,
            ..SpecView::new(heap)
        }
    }

    /// The same view with its load set coarsened to
    /// `2^granularity_log2`-word grains (see
    /// [`AccessSet::with_granularity`]); the validation side must build its
    /// write sets at the same granularity.
    #[must_use]
    pub fn with_conflict_granularity(mut self, granularity_log2: u8) -> Self {
        debug_assert!(self.reads.is_empty(), "set the granularity before reads");
        self.reads = AccessSet::with_granularity(granularity_log2);
        self
    }

    /// Reads a word, preferring this thread's own speculative writes.
    #[must_use]
    pub fn read(&self, addr: i64) -> Option<i64> {
        if let Some(v) = self.writes.get(addr) {
            return Some(v);
        }
        self.heap.read(addr)
    }

    /// Reads a word like [`read`](Self::read), recording `addr` in the load
    /// set when read tracking is on and the read fell through to the shared
    /// heap (i.e. was not store-forwarded from this thread's own buffer).
    #[must_use]
    pub fn read_tracked(&mut self, addr: i64) -> Option<i64> {
        if let Some(v) = self.writes.get(addr) {
            return Some(v);
        }
        if self.track_reads {
            self.reads.insert(addr);
        }
        self.heap.read(addr)
    }

    /// The load set recorded so far (empty unless read tracking is on).
    #[must_use]
    pub fn reads(&self) -> &AccessSet {
        &self.reads
    }

    /// Buffers a speculative write.
    pub fn write(&mut self, addr: i64, value: i64) {
        self.writes.insert(addr, value);
    }

    /// Number of distinct words written.
    #[must_use]
    pub fn write_count(&self) -> usize {
        self.writes.len()
    }

    /// Discards the buffered writes while keeping the recorded load set
    /// (and the tracking mode). Used when a worker finishes replaying the
    /// loop's entry code: the replayed stores must not be committed twice,
    /// but the replay's reads ran concurrently with the main chunk, so a
    /// load of a word the loop later writes is a genuine dependence the
    /// validation must still see.
    pub fn drop_writes(&mut self) {
        self.writes.clear();
    }

    /// Consumes the view and returns the buffered writes in first-write
    /// order, for an ordered commit.
    #[must_use]
    pub fn into_writes(self) -> Vec<(i64, i64)> {
        self.into_parts().0
    }

    /// Consumes the view and returns the buffered writes (first-write order)
    /// together with the recorded load set.
    #[must_use]
    pub fn into_parts(self) -> (Vec<(i64, i64)>, AccessSet) {
        (self.writes.entries().to_vec(), self.reads)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_write_round_trip() {
        let mut h = SharedHeap::new(64);
        h.fill(10, &[1, 2, 3]);
        assert_eq!(h.read(11), Some(2));
        assert_eq!(h.read(1000), None);
        assert_eq!(h.read(-1), None);
        unsafe { h.write(11, 9) };
        assert_eq!(h.read(11), Some(9));
        assert_eq!(h.len(), 64);
        assert!(!h.is_empty());
    }

    #[test]
    fn spec_view_buffers_writes_until_commit() {
        let h = SharedHeap::new(32);
        let mut v = SpecView::new(&h);
        v.write(5, 42);
        v.write(6, 43);
        v.write(5, 44);
        assert_eq!(v.read(5), Some(44));
        assert_eq!(h.read(5), Some(0), "shared heap untouched before commit");
        assert_eq!(v.write_count(), 2);
        let writes = v.into_writes();
        assert_eq!(writes, vec![(5, 44), (6, 43)]);
        for (a, val) in writes {
            unsafe { h.write(a, val) };
        }
        assert_eq!(h.read(5), Some(44));
    }

    #[test]
    fn read_tracking_records_only_heap_fallthrough_reads() {
        let h = SharedHeap::new(64);
        let mut v = SpecView::with_read_tracking(&h, true);
        v.write(10, 7);
        assert_eq!(v.read_tracked(10), Some(7), "store-forwarded");
        assert_eq!(v.read_tracked(20), Some(0), "fell through to heap");
        let _ = v.read_tracked(999); // out of bounds still recorded: the
                                     // chunk faults, but the set must not lie
        assert!(!v.reads().contains(10), "forwarded reads are not stale");
        assert!(v.reads().contains(20));
        assert!(v.reads().contains(999));
        let (writes, reads) = v.into_parts();
        assert_eq!(writes, vec![(10, 7)]);
        assert_eq!(reads.len(), 2);

        // Tracking off: the load set stays empty.
        let mut quiet = SpecView::with_read_tracking(&h, false);
        assert_eq!(quiet.read_tracked(20), Some(0));
        assert!(quiet.reads().is_empty());
    }

    #[test]
    fn concurrent_readers_are_allowed() {
        let mut h = SharedHeap::new(1024);
        h.fill(0, &(0..1024).collect::<Vec<i64>>());
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    let mut sum = 0i64;
                    for a in 0..1024 {
                        sum += h.read(a).unwrap();
                    }
                    assert_eq!(sum, 1023 * 1024 / 2);
                });
            }
        });
    }
}
