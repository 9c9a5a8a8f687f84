//! A shared word heap with speculative write buffering for real OS threads.
//!
//! The timing simulator in `spice-sim` models the paper's hardware support
//! for speculative state; this module provides the same contract in software
//! for native execution: concurrent threads read a shared flat heap, the
//! non-speculative main thread writes it directly, and speculative workers
//! buffer their writes privately until the Spice protocol decides to commit
//! or squash them.
//!
//! The storage is a slice of [`AtomicI64`] accessed with
//! [`Ordering::Relaxed`] — a plain word `mov` on x86-64 — so sharing it
//! needs no `unsafe`, and every interleaving of reads and writes is defined
//! behaviour: a read returns some value that was written to that word,
//! never a torn one. That the *results* are right is a property of the
//! protocol, not of the memory ordering:
//!
//! * While chunks run, the main thread is the only writer. A worker may
//!   read a word while the main thread is writing it and see either the old
//!   or the new value. That read fell through to the shared heap, so the
//!   address is in the chunk's load set, and the main thread's store put it
//!   in the main chunk's write log; the ordered validation intersects the
//!   two and squashes the chunk. A possibly-stale value is never committed.
//! * Every other hand-over is ordered by a channel, which is a
//!   happens-before edge, and there are only two kinds: the **task send**
//!   (the mirror, [`SharedHeap::overwrite`], and every store of the kernel's
//!   entry code precede it, so a worker — which starts from the main
//!   thread's registers at the loop header and reads memory only inside the
//!   loop — sees them all) and the **result send** (it precedes the commit
//!   of the worker's buffer, and the last one precedes the snapshot,
//!   [`SharedHeap::snapshot_into`]).
//!
//! The heap keeps the extent rule of the [`FlatMemory`] it mirrors (stated
//! in that type's doc): every word at or past its extent is zero, so the
//! mirror and the snapshot copy `[..max(image extent, heap extent)]` rather
//! than the whole reservation and still leave heap and image identical.

use std::sync::atomic::{AtomicI64, AtomicUsize, Ordering};

use spice_ir::exec::{AccessSet, DenseMap};
use spice_ir::interp::{FlatMemory, MemPort};
use spice_ir::TrapKind;

/// A flat, word-addressable heap shared by the Spice threads of one loop.
#[derive(Debug)]
pub struct SharedHeap {
    words: Box<[AtomicI64]>,
    /// Every word at or past this index is zero. Read and written only by
    /// the main thread ([`SharedHeap::write`], [`SharedHeap::overwrite`],
    /// [`SharedHeap::snapshot_into`]) — workers never consult it and it
    /// publishes nothing to them, so it is an atomic only because the heap is
    /// shared by reference, and a relaxed load + store (no RMW) maintains it.
    extent: AtomicUsize,
}

impl SharedHeap {
    /// Creates a zeroed heap of `len` words.
    #[must_use]
    pub fn new(len: usize) -> Self {
        SharedHeap {
            words: (0..len).map(|_| AtomicI64::new(0)).collect(),
            extent: AtomicUsize::new(0),
        }
    }

    /// Number of words.
    #[must_use]
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// Whether the heap has zero words.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    fn word(&self, addr: i64) -> Option<&AtomicI64> {
        self.words.get(usize::try_from(addr).ok()?)
    }

    /// Reads word `addr`, or `None` if out of bounds (a speculative thread
    /// chasing a dangling prediction must fault gracefully, not crash the
    /// process).
    #[must_use]
    pub fn read(&self, addr: i64) -> Option<i64> {
        Some(self.word(addr)?.load(Ordering::Relaxed))
    }

    /// Writes word `addr`; `None` (and no write) if out of bounds. In the
    /// Spice protocol only the main thread calls this: for its own
    /// non-speculative stores and for ordered commits of validated buffers.
    #[must_use]
    pub fn write(&self, addr: i64, value: i64) -> Option<()> {
        let idx = usize::try_from(addr).ok()?;
        self.words.get(idx)?.store(value, Ordering::Relaxed);
        if idx >= self.extent.load(Ordering::Relaxed) {
            self.extent.store(idx + 1, Ordering::Relaxed);
        }
        Some(())
    }

    /// How many leading words a copy between the heap and `image` has to
    /// visit: past the larger of the two extents both are zero.
    ///
    /// # Panics
    ///
    /// Panics if the image's size differs from the heap length.
    fn touched(&self, image: &FlatMemory) -> usize {
        assert_eq!(image.size(), self.words.len(), "heap image length changed");
        image.extent().max(self.extent.load(Ordering::Relaxed))
    }

    /// Makes the heap identical to `image` — the between-invocations mirror
    /// of a mutated canonical memory image into a *persistent* shared heap.
    /// Copies up to the larger of the two extents, which also clears what
    /// the heap holds past the image's extent.
    ///
    /// # Panics
    ///
    /// Panics if the image's size differs from the heap length.
    pub fn overwrite(&self, image: &FlatMemory) {
        let touched = self.touched(image);
        for (word, &value) in self.words[..touched].iter().zip(image.words()) {
            word.store(value, Ordering::Relaxed);
        }
        self.extent.store(image.extent(), Ordering::Relaxed);
    }

    /// Makes `image` identical to the heap — the post-invocation commit of
    /// the shared heap back into the canonical memory image. Copies up to
    /// the larger of the two extents.
    ///
    /// # Panics
    ///
    /// Panics if the image's size differs from the heap length.
    pub fn snapshot_into(&self, image: &mut FlatMemory) {
        let touched = self.touched(image);
        for (slot, word) in image.prefix_mut(touched).iter_mut().zip(self.words.iter()) {
            *slot = word.load(Ordering::Relaxed);
        }
    }
}

/// A speculative view of a [`SharedHeap`], and the [`MemPort`] a worker
/// chunk executes against: loads see the thread's own buffered stores first,
/// stores are buffered (bounds-checked now, so the later commit cannot
/// fault) and never touch shared memory until [`SpecView::into_parts`] hands
/// them to the committer.
///
/// A view lives for exactly one chunk. The worker's registers are the main
/// thread's at its first arrival at the loop header (cursors and reductions
/// apart), so everything the view loads or buffers is an access of the loop
/// itself — the kernel's entry code never runs against a view. Between the
/// task send that starts the chunk and the result send that ends it the
/// worker synchronizes with nothing, which is why every load that reaches
/// the shared heap has to be accounted for.
///
/// With read tracking on, the view additionally records its *load set* —
/// every address loaded that was **not** satisfied by the thread's own store
/// buffer — as an [`AccessSet`]. This is the per-chunk half of the
/// memory-dependence speculation subsystem: at commit time the runtime
/// intersects a chunk's load set against the write sets of logically earlier
/// chunks and squashes on overlap (a RAW violation). Store-forwarded loads
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
    /// Creates an empty speculative view, recording the load set when
    /// `track` is set (the [`spice_ir::exec::ConflictPolicy::Detect`] mode).
    #[must_use]
    pub fn with_read_tracking(heap: &'h SharedHeap, track: bool) -> Self {
        SpecView {
            heap,
            writes: DenseMap::new(),
            reads: AccessSet::new(),
            track_reads: track,
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

    /// Consumes the view and returns the buffered writes (first-write order)
    /// together with the recorded load set.
    #[must_use]
    pub fn into_parts(self) -> (Vec<(i64, i64)>, AccessSet) {
        (self.writes.entries().to_vec(), self.reads)
    }
}

impl MemPort for SpecView<'_> {
    fn load(&mut self, addr: i64) -> Result<i64, TrapKind> {
        if let Some(v) = self.writes.get(addr) {
            return Ok(v);
        }
        // Recorded even when out of bounds: the chunk faults, but the set
        // must not lie about what it tried to read.
        if self.track_reads {
            self.reads.insert(addr);
        }
        self.heap
            .read(addr)
            .ok_or(TrapKind::OutOfBoundsAccess { addr })
    }

    fn store(&mut self, addr: i64, value: i64) -> Result<(), TrapKind> {
        if self.heap.word(addr).is_none() {
            return Err(TrapKind::OutOfBoundsAccess { addr });
        }
        self.writes.insert(addr, value);
        Ok(())
    }

    fn alloc(&mut self, _words: i64) -> Result<i64, TrapKind> {
        // Speculative allocation is unsupported; the chunk squashes.
        Err(TrapKind::OutOfMemory)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;

    /// A `len`-word image holding `value(i)` in each of its first `filled`
    /// words.
    fn image(len: usize, filled: usize, value: impl Fn(i64) -> i64) -> FlatMemory {
        let mut mem = FlatMemory::new(len);
        for a in 0..filled as i64 {
            mem.write(a, value(a)).unwrap();
        }
        mem
    }

    #[test]
    fn read_write_round_trip() {
        let h = SharedHeap::new(64);
        h.overwrite(&image(64, 64, |a| 100 + a));
        assert_eq!(h.read(11), Some(111));
        assert_eq!(h.read(1000), None);
        assert_eq!(h.read(-1), None);
        assert_eq!(h.write(11, 9), Some(()));
        assert_eq!(h.write(64, 9), None);
        assert_eq!(h.write(-1, 9), None);
        assert_eq!(h.read(11), Some(9));
        let mut image = FlatMemory::new(64);
        h.snapshot_into(&mut image);
        assert_eq!(
            (image.read(10), image.read(11), image.read(12)),
            (Ok(110), Ok(9), Ok(112))
        );
        assert_eq!(h.len(), 64);
        assert!(!h.is_empty());
    }

    /// The mirror and the snapshot copy only the touched prefix, and still
    /// leave heap and image identical word for word — in particular a word
    /// the heap holds past the image's extent is cleared by the mirror, and
    /// one the image holds past the heap's extent reaches the heap.
    #[test]
    fn mirror_and_snapshot_cover_the_larger_extent() {
        let same = |h: &SharedHeap, m: &FlatMemory| {
            let heap: Vec<i64> = (0..h.len() as i64).map(|a| h.read(a).unwrap()).collect();
            heap == m.words()
        };
        let h = SharedHeap::new(4096);
        let low = image(4096, 8, |a| a + 1);
        h.overwrite(&low);
        assert!(same(&h, &low));

        // The heap runs ahead of the image: the snapshot picks the word up …
        h.write(4000, 7).unwrap();
        let mut snap = low.clone();
        h.snapshot_into(&mut snap);
        assert_eq!(snap.read(4000), Ok(7));
        assert!(snap.extent() > 4000);
        assert!(same(&h, &snap));
        // … and mirroring the low image again clears it.
        h.overwrite(&low);
        assert_eq!(h.read(4000), Some(0));
        assert!(same(&h, &low));

        // The image runs ahead of the heap.
        let mut high = low.clone();
        high.write(3000, 9).unwrap();
        h.overwrite(&high);
        assert_eq!(h.read(3000), Some(9));
        assert!(same(&h, &high));
        // A snapshot into an image that holds more than the heap clears it.
        h.overwrite(&low);
        h.snapshot_into(&mut high);
        assert_eq!(high.read(3000), Ok(0));
        assert_eq!(high, low);
    }

    #[test]
    fn spec_view_buffers_writes_until_commit() {
        let h = SharedHeap::new(32);
        let mut v = SpecView::with_read_tracking(&h, false);
        v.store(5, 42).unwrap();
        v.store(6, 43).unwrap();
        v.store(5, 44).unwrap();
        assert_eq!(v.load(5), Ok(44));
        assert_eq!(h.read(5), Some(0), "shared heap untouched before commit");
        assert_eq!(
            v.store(32, 1),
            Err(TrapKind::OutOfBoundsAccess { addr: 32 }),
            "a store the commit could not apply faults when it is buffered"
        );
        assert_eq!(v.alloc(1), Err(TrapKind::OutOfMemory));
        let (writes, _) = v.into_parts();
        assert_eq!(writes, vec![(5, 44), (6, 43)]);
        for (a, val) in writes {
            h.write(a, val).unwrap();
        }
        assert_eq!(h.read(5), Some(44));
    }

    #[test]
    fn read_tracking_records_only_heap_fallthrough_reads() {
        let h = SharedHeap::new(64);
        let mut v = SpecView::with_read_tracking(&h, true);
        v.store(10, 7).unwrap();
        assert_eq!(v.load(10), Ok(7), "store-forwarded");
        assert_eq!(v.load(20), Ok(0), "fell through to heap");
        assert!(v.load(999).is_err());
        let (writes, reads) = v.into_parts();
        assert_eq!(writes, vec![(10, 7)]);
        assert!(reads.contains(20));
        assert!(reads.contains(999), "a faulting read is still recorded");
        assert!(!reads.contains(10), "a forwarded load is not a heap read");
        assert_eq!(reads.len(), 2);

        // Tracking off: the load set stays empty.
        let mut quiet = SpecView::with_read_tracking(&h, false);
        assert_eq!(quiet.load(20), Ok(0));
        assert!(quiet.into_parts().1.is_empty());
    }

    #[test]
    fn concurrent_readers_are_allowed() {
        let h = SharedHeap::new(1024);
        h.overwrite(&image(1024, 1024, |a| a));
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

    /// The protocol's one race, forced with a barrier: two readers spin on
    /// the words while the single direct writer flips each from its old to
    /// its new value. Every observation is one of those two values — never
    /// torn, never a third — and a reader that saw the new value never sees
    /// the old one of that word again.
    #[test]
    fn readers_racing_the_direct_writer_see_old_or_new() {
        const WORDS: i64 = 256;
        const OLD: i64 = 0x0123_4567_89ab_cdef;
        const NEW: i64 = !OLD;
        let h = SharedHeap::new(WORDS as usize);
        h.overwrite(&image(WORDS as usize, WORDS as usize, |_| OLD));
        let start = Barrier::new(3);
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    start.wait();
                    let mut flipped = vec![false; WORDS as usize];
                    while !flipped.iter().all(|&f| f) {
                        for a in 0..WORDS {
                            let v = h.read(a).unwrap();
                            assert!(v == OLD || v == NEW, "word {a} read {v:#x}");
                            assert!(
                                v == NEW || !flipped[a as usize],
                                "word {a} went back to its old value"
                            );
                            flipped[a as usize] = v == NEW;
                        }
                    }
                });
            }
            s.spawn(|| {
                start.wait();
                for a in 0..WORDS {
                    h.write(a, NEW).unwrap();
                }
            });
        });
    }
}
