//! Helpers for building linked data structures inside the simulated flat
//! memory, with a host-side mirror so drivers can mutate them between loop
//! invocations (insertions, deletions, re-linking) the way the original
//! applications do.

use spice_ir::interp::FlatMemory;
use spice_ir::TrapKind;

/// A fixed-capacity arena of equally sized records living in a global of the
/// simulated program.
///
/// Records are addressed by slot index; the arena hands out free slots and
/// recycles released ones, mimicking a malloc'd heap whose nodes keep their
/// addresses while the logical structure (list order, tree shape) changes —
/// the property Spice's value prediction relies on.
#[derive(Debug, Clone)]
pub struct RecordArena {
    base: i64,
    record_words: i64,
    capacity: usize,
    free: Vec<usize>,
    live: Vec<bool>,
}

impl RecordArena {
    /// Creates an arena over a global starting at `base` with room for
    /// `capacity` records of `record_words` words each.
    #[must_use]
    pub fn new(base: i64, record_words: i64, capacity: usize) -> Self {
        RecordArena {
            base,
            record_words,
            capacity,
            free: (0..capacity).rev().collect(),
            live: vec![false; capacity],
        }
    }

    /// Number of words a program must reserve for this arena.
    #[must_use]
    pub fn words_needed(record_words: i64, capacity: usize) -> i64 {
        record_words * capacity as i64
    }

    /// The simulated-memory address of record `slot`.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of range.
    #[must_use]
    pub fn addr(&self, slot: usize) -> i64 {
        assert!(slot < self.capacity, "slot out of range");
        self.base + self.record_words * slot as i64
    }

    /// The slot whose record starts at `addr`, if any.
    #[must_use]
    pub fn slot_of(&self, addr: i64) -> Option<usize> {
        if addr < self.base {
            return None;
        }
        let off = addr - self.base;
        if off % self.record_words != 0 {
            return None;
        }
        let slot = (off / self.record_words) as usize;
        (slot < self.capacity).then_some(slot)
    }

    /// Shuffles the allocation order deterministically so that records
    /// allocated one after another do not land on adjacent addresses —
    /// mimicking a long-lived malloc heap where logically adjacent list nodes
    /// have no spatial locality (the regime the paper's pointer-chasing
    /// loops run in).
    pub fn scatter(&mut self, seed: u64) {
        let mut state = seed | 1;
        let mut next = || {
            // xorshift64*
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            state = state.wrapping_mul(0x2545_F491_4F6C_DD1D);
            state
        };
        for i in (1..self.free.len()).rev() {
            let j = (next() % (i as u64 + 1)) as usize;
            self.free.swap(i, j);
        }
    }

    /// Allocates a record slot, or `None` if the arena is full.
    pub fn alloc(&mut self) -> Option<usize> {
        let slot = self.free.pop()?;
        self.live[slot] = true;
        Some(slot)
    }

    /// Releases a record slot back to the arena.
    ///
    /// # Panics
    ///
    /// Panics if the slot was not live.
    pub fn release(&mut self, slot: usize) {
        assert!(self.live[slot], "releasing a slot that is not live");
        self.live[slot] = false;
        self.free.push(slot);
    }

    /// Writes field `field` of record `slot`.
    ///
    /// # Errors
    ///
    /// Propagates out-of-bounds faults from the underlying memory.
    pub fn write(
        &self,
        mem: &mut FlatMemory,
        slot: usize,
        field: i64,
        value: i64,
    ) -> Result<(), TrapKind> {
        mem.write(self.addr(slot) + field, value)
    }

    /// Reads field `field` of record `slot`.
    ///
    /// # Errors
    ///
    /// Propagates out-of-bounds faults from the underlying memory.
    pub fn read(&self, mem: &FlatMemory, slot: usize, field: i64) -> Result<i64, TrapKind> {
        mem.read(self.addr(slot) + field)
    }
}

/// A host-side mirror of a singly linked list whose nodes live in a
/// [`RecordArena`]. Field 0 of each record is workload-defined (weight,
/// gain, ...); the field holding the `next` pointer is configurable.
#[derive(Debug, Clone)]
pub struct ListMirror {
    /// Slots in list order.
    pub order: Vec<usize>,
    next_field: i64,
}

impl ListMirror {
    /// Creates an empty list whose `next` pointers live at `next_field`.
    #[must_use]
    pub fn new(next_field: i64) -> Self {
        ListMirror {
            order: Vec::new(),
            next_field,
        }
    }

    /// Head address of the list (0 when empty).
    #[must_use]
    pub fn head_addr(&self, arena: &RecordArena) -> i64 {
        self.order.first().map_or(0, |&s| arena.addr(s))
    }

    /// Number of nodes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// Whether the list is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// Rewrites every `next` pointer in simulated memory to match the mirror.
    ///
    /// # Errors
    ///
    /// Propagates out-of-bounds faults from the underlying memory.
    pub fn relink(&self, arena: &RecordArena, mem: &mut FlatMemory) -> Result<(), TrapKind> {
        for (i, &slot) in self.order.iter().enumerate() {
            let next = if i + 1 < self.order.len() {
                arena.addr(self.order[i + 1])
            } else {
                0
            };
            arena.write(mem, slot, self.next_field, next)?;
        }
        Ok(())
    }

    /// Inserts `slot` at `position` (clamped to the list length).
    pub fn insert_at(&mut self, position: usize, slot: usize) {
        let pos = position.min(self.order.len());
        self.order.insert(pos, slot);
    }

    /// Removes and returns the node at `position`.
    ///
    /// # Panics
    ///
    /// Panics if `position` is out of range.
    pub fn remove_at(&mut self, position: usize) -> usize {
        self.order.remove(position)
    }

    /// Position of `slot` in the list, if present.
    #[must_use]
    pub fn position_of(&self, slot: usize) -> Option<usize> {
        self.order.iter().position(|&s| s == slot)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mem() -> FlatMemory {
        FlatMemory::new(16 * 1024)
    }

    #[test]
    fn arena_addresses_are_spaced_by_record_size() {
        let a = RecordArena::new(2048, 4, 16);
        assert_eq!(a.addr(0), 2048);
        assert_eq!(a.addr(3), 2048 + 12);
        assert_eq!(a.slot_of(2048 + 12), Some(3));
        assert_eq!(a.slot_of(2048 + 13), None);
        assert_eq!(a.slot_of(100), None);
        assert_eq!(RecordArena::words_needed(4, 16), 64);
    }

    #[test]
    fn alloc_and_release_recycle_slots() {
        let mut a = RecordArena::new(2048, 2, 4);
        let s0 = a.alloc().unwrap();
        let s1 = a.alloc().unwrap();
        assert_ne!(s0, s1);
        assert!(a.live[s0] && a.live[s1]);
        a.release(s0);
        assert!(!a.live[s0] && a.live[s1]);
        let s2 = a.alloc().unwrap();
        assert_eq!(s2, s0, "released slots are recycled");
        // Exhaust.
        let _ = a.alloc().unwrap();
        let _ = a.alloc().unwrap();
        assert!(a.alloc().is_none());
    }

    #[test]
    #[should_panic(expected = "not live")]
    fn double_release_panics() {
        let mut a = RecordArena::new(2048, 2, 4);
        let s = a.alloc().unwrap();
        a.release(s);
        a.release(s);
    }

    #[test]
    fn list_mirror_relinks_memory() {
        let mut m = mem();
        let mut arena = RecordArena::new(2048, 2, 8);
        let mut list = ListMirror::new(1);
        for w in [5i64, 9, 1] {
            let s = arena.alloc().unwrap();
            arena.write(&mut m, s, 0, w).unwrap();
            list.insert_at(usize::MAX, s);
        }
        list.relink(&arena, &mut m).unwrap();
        // Walk the list in simulated memory.
        let mut cur = list.head_addr(&arena);
        let mut seen = Vec::new();
        while cur != 0 {
            seen.push(m.read(cur).unwrap());
            cur = m.read(cur + 1).unwrap();
        }
        assert_eq!(seen, vec![5, 9, 1]);

        // Remove the middle node and relink: the walk skips it.
        let removed = list.remove_at(1);
        arena.release(removed);
        list.relink(&arena, &mut m).unwrap();
        let mut cur = list.head_addr(&arena);
        let mut seen = Vec::new();
        while cur != 0 {
            seen.push(m.read(cur).unwrap());
            cur = m.read(cur + 1).unwrap();
        }
        assert_eq!(seen, vec![5, 1]);
    }

    #[test]
    fn empty_list_has_null_head() {
        let arena = RecordArena::new(2048, 2, 8);
        let list = ListMirror::new(1);
        assert_eq!(list.head_addr(&arena), 0);
        assert!(list.is_empty());
    }
}
