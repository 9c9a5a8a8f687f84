//! Speculative write buffering over a frozen memory image, for real OS
//! threads.
//!
//! The timing simulator in `spice-sim` models the paper's hardware support
//! for speculative state; this module provides the same contract in software
//! for native execution. There is one memory, the loop's [`FlatMemory`]
//! image, and while the chunks of an invocation run **nothing writes it**:
//! every chunk — the non-speculative main chunk included — executes against
//! a [`SpecView`] that reads the image and buffers its stores privately.
//! After the last worker has reported, the main thread applies the main
//! chunk's buffer and then each committed worker's, in thread order; a
//! squashed chunk's buffer is dropped.
//!
//! Sharing the image therefore needs neither `unsafe` nor atomics: the
//! threads hold it through an `Arc`, which hands out `&FlatMemory` while the
//! chunks run and `&mut FlatMemory` (`Arc::get_mut`) only when the main
//! thread holds the last reference — a worker drops its clone before its
//! result send, so the borrow checker, not a memory-ordering argument, rules
//! out a read racing a write. The only hand-overs are two channel edges, each
//! a happens-before edge: the **task send** (every store of the kernel's
//! entry code, made straight on the image, precedes it) and the **result
//! send** (it precedes every write of the apply step).
//!
//! A chunk is a pure function of the image at the loop header and its start
//! prediction, so what an invocation computes, commits and squashes does not
//! depend on how the host schedules the threads.

use spice_ir::exec::{AccessSet, DenseMap};
use spice_ir::interp::{FlatMemory, MemPort};
use spice_ir::TrapKind;

/// A speculative view of a frozen [`FlatMemory`] image, and the [`MemPort`]
/// a chunk executes against: loads see the chunk's own buffered stores
/// first, stores are buffered (bounds-checked now, so the later apply step
/// cannot fault) and never touch the image; [`SpecView::into_parts`] hands
/// them to the committer.
///
/// A view lives for exactly one chunk. A worker's registers are the main
/// thread's at its first arrival at the loop header (cursors and reductions
/// apart), so everything a view loads or buffers is an access of the loop
/// itself — the kernel's entry code never runs against a view.
///
/// With read tracking on, the view additionally records its *load set* —
/// every address loaded that was **not** satisfied by the chunk's own store
/// buffer — as an [`AccessSet`]. This is the per-chunk half of the
/// memory-dependence speculation subsystem: at commit time the runtime
/// intersects a chunk's load set against the write sets of logically earlier
/// chunks and squashes on overlap (a RAW violation: the frozen image held
/// the value from before the earlier chunk's store). Store-forwarded loads
/// are excluded because they can never observe a stale value.
#[derive(Debug)]
pub struct SpecView<'m> {
    image: &'m FlatMemory,
    /// Buffered writes in an insertion-ordered open-addressed map — its
    /// entry order is the first-write order an ordered commit needs, with no
    /// hashing overhead on the per-store path.
    writes: DenseMap<i64>,
    reads: AccessSet,
    track_reads: bool,
    /// The allocation cursor of the main chunk's view. A worker's view has
    /// none: speculative allocation is unsupported.
    alloc_next: Option<i64>,
}

impl<'m> SpecView<'m> {
    /// Creates an empty view for a speculative worker chunk, recording the
    /// load set when `track` is set (the
    /// [`spice_ir::exec::ConflictPolicy::Detect`] mode).
    #[must_use]
    pub fn with_read_tracking(image: &'m FlatMemory, track: bool) -> Self {
        SpecView {
            image,
            writes: DenseMap::new(),
            reads: AccessSet::new(),
            track_reads: track,
            alloc_next: None,
        }
    }

    /// Creates an empty view for the non-speculative main chunk: nothing is
    /// logically earlier, so its loads are not tracked, and it allocates from
    /// the image's cursor ([`SpecView::alloc_next`] is where the cursor ends
    /// up).
    #[must_use]
    pub fn for_main_chunk(image: &'m FlatMemory) -> Self {
        SpecView {
            alloc_next: Some(image.heap_next()),
            ..SpecView::with_read_tracking(image, false)
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

    /// The main chunk's allocation cursor; `None` for a worker's view.
    #[must_use]
    pub fn alloc_next(&self) -> Option<i64> {
        self.alloc_next
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
        self.image.read(addr)
    }

    fn store(&mut self, addr: i64, value: i64) -> Result<(), TrapKind> {
        self.image.read(addr)?; // the bounds check of the apply step, made now
        self.writes.insert(addr, value);
        Ok(())
    }

    fn alloc(&mut self, words: i64) -> Result<i64, TrapKind> {
        // Without a cursor the chunk is speculative, and squashes.
        let next = self.alloc_next.as_mut().ok_or(TrapKind::OutOfMemory)?;
        let end = next
            .checked_add(words)
            .filter(|&end| words >= 0 && end as usize <= self.image.size())
            .ok_or(TrapKind::OutOfMemory)?;
        Ok(std::mem::replace(next, end))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_view_buffers_writes_until_commit() {
        let mut image = FlatMemory::new(32);
        let mut v = SpecView::with_read_tracking(&image, false);
        v.store(5, 42).unwrap();
        v.store(6, 43).unwrap();
        v.store(5, 44).unwrap();
        assert_eq!(v.load(5), Ok(44));
        assert_eq!(image.read(5), Ok(0), "image untouched before commit");
        assert_eq!(
            v.store(32, 1),
            Err(TrapKind::OutOfBoundsAccess { addr: 32 }),
            "a store the commit could not apply faults when it is buffered"
        );
        assert_eq!(v.alloc(1), Err(TrapKind::OutOfMemory));
        assert_eq!(v.alloc_next(), None);
        let (writes, _) = v.into_parts();
        assert_eq!(writes, vec![(5, 44), (6, 43)]);
        for (a, val) in writes {
            image.write(a, val).unwrap();
        }
        assert_eq!(image.read(5), Ok(44));
    }

    /// The main chunk's view is a view like any other — buffered,
    /// bounds-checked stores — plus the image's allocator.
    #[test]
    fn main_chunk_view_allocates_from_the_image_cursor() {
        let mut image = FlatMemory::new(2048);
        image.set_heap_next(2000);
        let mut v = SpecView::for_main_chunk(&image);
        assert_eq!(v.alloc(40), Ok(2000));
        assert_eq!(v.alloc(0), Ok(2040));
        assert_eq!(v.alloc(-1), Err(TrapKind::OutOfMemory));
        assert_eq!(v.alloc(9), Err(TrapKind::OutOfMemory), "past the end");
        assert_eq!(v.alloc(i64::MAX), Err(TrapKind::OutOfMemory));
        assert_eq!(v.alloc(8), Ok(2040), "a refused alloc moves nothing");
        assert_eq!(v.alloc_next(), Some(2048));
        assert_eq!(image.heap_next(), 2000, "the image's cursor is frozen too");

        v.store(2047, 7).unwrap();
        for addr in [-1, 2048] {
            assert_eq!(v.store(addr, 1), Err(TrapKind::OutOfBoundsAccess { addr }));
            assert_eq!(v.load(addr), Err(TrapKind::OutOfBoundsAccess { addr }));
        }
        let (writes, reads) = v.into_parts();
        assert_eq!(writes, vec![(2047, 7)]);
        assert!(reads.is_empty(), "the main chunk's loads are not tracked");
    }

    #[test]
    fn read_tracking_records_only_heap_fallthrough_reads() {
        let image = FlatMemory::new(64);
        let mut v = SpecView::with_read_tracking(&image, true);
        v.store(10, 7).unwrap();
        assert_eq!(v.load(10), Ok(7), "store-forwarded");
        assert_eq!(v.load(20), Ok(0), "fell through to the image");
        assert!(v.load(999).is_err());
        let (writes, reads) = v.into_parts();
        assert_eq!(writes, vec![(10, 7)]);
        assert!(reads.contains(20));
        assert!(reads.contains(999), "a faulting read is still recorded");
        assert!(!reads.contains(10), "a forwarded load is not an image read");
        assert_eq!(reads.len(), 2);

        // Tracking off: the load set stays empty.
        let mut quiet = SpecView::with_read_tracking(&image, false);
        assert_eq!(quiet.load(20), Ok(0));
        assert!(quiet.into_parts().1.is_empty());
    }
}
