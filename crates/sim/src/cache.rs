//! Set-associative cache models and the three-level memory hierarchy of the
//! Table 1 machine.
//!
//! The caches are *tag-only*: functional data lives in the shared
//! [`spice_ir::interp::FlatMemory`]; the hierarchy only decides how many
//! cycles an access costs and tracks coherence invalidations. That is exactly
//! the fidelity the paper's results depend on — the pointer-chasing loads of
//! the evaluated loops are on the critical path because they miss, not
//! because of the miss handling micro-architecture.

use serde::{Deserialize, Serialize};

use crate::config::{CacheConfig, MachineConfig};

/// Word size of the IR memory in bytes (all IR values are 64-bit words).
pub const WORD_BYTES: i64 = 8;

/// A single set-associative, LRU, tag-only cache.
#[derive(Debug, Clone)]
pub struct Cache {
    line_words: i64,
    sets: usize,
    assoc: usize,
    /// `log2(line_words)` when the line size is a power-of-two number of
    /// words (every real configuration), letting the per-access line/set
    /// arithmetic be shifts and masks instead of two hardware divisions.
    line_shift: Option<u32>,
    /// `sets - 1` when the set count is a power of two.
    set_mask: Option<i64>,
    /// Flat tag store: `tags[set * assoc ..][.. assoc]` holds the set's
    /// resident line addresses as an occupied prefix in LRU order
    /// (most-recently-used last), padded with [`EMPTY_TAG`]. One allocation,
    /// no per-set vector indirection on the access path.
    tags: Vec<i64>,
    /// The line of the previous [`Cache::access`], or [`EMPTY_TAG`] once
    /// that line has been invalidated. An access leaves its line MRU of its
    /// set and nothing but another access reorders a set, so while this is
    /// a line it is resident and already where a hit would move it.
    last_line: i64,
}

/// Sentinel marking an unoccupied way. No reachable word address maps to
/// this line index (it would require an address below `i64::MIN + 63`).
const EMPTY_TAG: i64 = i64::MIN;

impl Cache {
    /// Creates an empty cache with the given geometry.
    #[must_use]
    pub fn new(config: &CacheConfig) -> Self {
        let line_words = (config.line_bytes as i64) / WORD_BYTES;
        let sets = config.sets();
        Cache {
            line_words,
            sets,
            assoc: config.assoc,
            line_shift: (line_words > 0 && line_words.count_ones() == 1)
                .then(|| line_words.trailing_zeros()),
            set_mask: (sets > 0 && sets.count_ones() == 1).then_some(sets as i64 - 1),
            tags: vec![EMPTY_TAG; sets * config.assoc],
            last_line: EMPTY_TAG,
        }
    }

    #[inline]
    fn line_of(&self, word_addr: i64) -> i64 {
        // An arithmetic right shift is exactly floor-division by a
        // power-of-two divisor, which is what `div_euclid` computes.
        match self.line_shift {
            Some(s) => word_addr >> s,
            None => word_addr.div_euclid(self.line_words),
        }
    }

    #[inline]
    fn set_of(&self, line: i64) -> usize {
        match self.set_mask {
            Some(m) => (line & m) as usize,
            None => (line.rem_euclid(self.sets as i64)) as usize,
        }
    }

    /// Accesses `word_addr`, updating LRU state, and returns `true` on a hit.
    /// On a miss the line is filled (allocate-on-miss for both reads and
    /// writes).
    #[inline]
    pub fn access(&mut self, word_addr: i64) -> bool {
        let line = self.line_of(word_addr);
        debug_assert_ne!(line, EMPTY_TAG);
        // Hits that move nothing: the previous access's line, else the last
        // way of a full set, is already MRU.
        if line == self.last_line {
            return true;
        }
        self.last_line = line;
        let set = self.set_of(line);
        let ways = &mut self.tags[set * self.assoc..(set + 1) * self.assoc];
        let last = ways.len() - 1;
        if ways[last] == line {
            return true;
        }
        // One pass over the occupied prefix: find the line or the first free
        // way.
        let Some(k) = ways.iter().position(|&t| t == line || t == EMPTY_TAG) else {
            // Full set: evict LRU (front), shift, fill at the MRU end.
            ways.copy_within(1.., 0);
            ways[last] = line;
            return false;
        };
        if ways[k] == EMPTY_TAG {
            ways[k] = line;
            return false;
        }
        // Hit below MRU: close the gap and put the line at the end of the
        // occupied prefix (the order a `Vec`'s remove + push produces).
        let mut j = k;
        while j < last && ways[j + 1] != EMPTY_TAG {
            ways[j] = ways[j + 1];
            j += 1;
        }
        ways[j] = line;
        true
    }

    /// Probes for `word_addr` without updating LRU or fill state.
    #[must_use]
    pub fn contains(&self, word_addr: i64) -> bool {
        let line = self.line_of(word_addr);
        let set = self.set_of(line);
        self.tags[set * self.assoc..(set + 1) * self.assoc].contains(&line)
    }

    /// Invalidates the line containing `word_addr` if present (coherence).
    pub fn invalidate(&mut self, word_addr: i64) {
        let line = self.line_of(word_addr);
        let set = self.set_of(line);
        let ways = &mut self.tags[set * self.assoc..(set + 1) * self.assoc];
        if let Some(k) = ways.iter().position(|&t| t == line) {
            // Preserve the order of the remaining occupied prefix.
            ways.copy_within(k + 1.., k);
            let last = ways.len() - 1;
            ways[last] = EMPTY_TAG;
            if line == self.last_line {
                self.last_line = EMPTY_TAG;
            }
        }
    }
}

/// Per-access outcome of a hierarchy walk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum HitLevel {
    /// Satisfied by the private L1 data cache.
    L1,
    /// Satisfied by the private L2 cache.
    L2,
    /// Satisfied by the shared L3 cache.
    L3,
    /// Went to main memory.
    Memory,
}

/// Aggregate counters of one core's memory activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MemAccessStats {
    /// Loads issued.
    pub loads: u64,
    /// Stores issued.
    pub stores: u64,
    /// Loads/stores satisfied at each level.
    pub l1_hits: u64,
    /// Accesses satisfied by the L2.
    pub l2_hits: u64,
    /// Accesses satisfied by the shared L3.
    pub l3_hits: u64,
    /// Accesses that went to main memory.
    pub memory_accesses: u64,
}

/// The full memory hierarchy: per-core L1 + L2, shared L3, flat latency main
/// memory, write-invalidate coherence between the private levels.
#[derive(Debug, Clone)]
pub struct MemoryHierarchy {
    cores: Vec<PrivateLevels>,
    /// The snoop filter a store consults; `None` on a one-core machine,
    /// which has no other core to invalidate.
    sharers: Option<SharerMask>,
    l3: Cache,
    l1_latency: u64,
    l2_latency: u64,
    l3_latency: u64,
    memory_latency: u64,
}

/// What one core owns of the hierarchy, side by side so an access indexes
/// the core once.
#[derive(Debug, Clone)]
struct PrivateLevels {
    l1: Cache,
    l2: Cache,
    stats: MemAccessStats,
}

impl MemoryHierarchy {
    /// Builds the hierarchy for `config.cores` cores over a memory of
    /// `memory_words` words (the extent the snoop filter tracks block by
    /// block; addresses outside it share one conservative entry).
    #[must_use]
    pub fn new(config: &MachineConfig, memory_words: usize) -> Self {
        MemoryHierarchy {
            cores: (0..config.cores)
                .map(|_| PrivateLevels {
                    l1: Cache::new(&config.l1d),
                    l2: Cache::new(&config.l2),
                    stats: MemAccessStats::default(),
                })
                .collect(),
            sharers: (config.cores > 1).then(|| SharerMask::new(config, memory_words)),
            l3: Cache::new(&config.l3),
            l1_latency: config.l1d.hit_latency,
            l2_latency: config.l2.hit_latency,
            l3_latency: config.l3.hit_latency,
            memory_latency: config.memory_latency,
        }
    }

    /// Simulates a load by `core` from `word_addr`; returns the latency in
    /// cycles and the level that satisfied it.
    #[inline]
    pub fn load(&mut self, core: usize, word_addr: i64) -> (u64, HitLevel) {
        self.cores[core].stats.loads += 1;
        self.access(core, word_addr)
    }

    /// Simulates a store by `core` to `word_addr`; returns the latency in
    /// cycles charged to the core. Stores invalidate the line in the private
    /// caches of every other core the snoop filter names
    /// (write-invalidate coherence); a core it does not name holds no copy.
    #[inline]
    pub fn store(&mut self, core: usize, word_addr: i64) -> (u64, HitLevel) {
        self.cores[core].stats.stores += 1;
        let result = self.access(core, word_addr);
        if let Some(sharers) = &mut self.sharers {
            let slot = sharers.slot(word_addr);
            let named = sharers.bits[slot];
            let mut pending = named;
            while pending != 0 {
                let bit = pending.trailing_zeros() as usize;
                pending &= pending - 1;
                for other in (bit..self.cores.len()).step_by(SHARER_BITS) {
                    if other != core {
                        let levels = &mut self.cores[other];
                        levels.l1.invalidate(word_addr);
                        levels.l2.invalidate(word_addr);
                    }
                }
            }
            // Every core a cleared bit stands for was just probed; the
            // storer's own bit stays, as the storer holds the line.
            sharers.clear(slot, named & !sharer_bit(core));
        }
        result
    }

    #[inline]
    fn access(&mut self, core: usize, word_addr: i64) -> (u64, HitLevel) {
        let PrivateLevels { l1, l2, stats } = &mut self.cores[core];
        if l1.access(word_addr) {
            stats.l1_hits += 1;
            return (self.l1_latency, HitLevel::L1);
        }
        let l2_hit = l2.access(word_addr);
        if let Some(sharers) = &mut self.sharers {
            sharers.mark(core, word_addr, sharers.l1_blocks);
            if !l2_hit {
                sharers.mark(core, word_addr, sharers.l2_blocks);
            }
        }
        if l2_hit {
            stats.l2_hits += 1;
            return (self.l1_latency + self.l2_latency, HitLevel::L2);
        }
        if self.l3.access(word_addr) {
            stats.l3_hits += 1;
            return (
                self.l1_latency + self.l2_latency + self.l3_latency,
                HitLevel::L3,
            );
        }
        stats.memory_accesses += 1;
        (
            self.l1_latency + self.l2_latency + self.l3_latency + self.memory_latency,
            HitLevel::Memory,
        )
    }

    /// Per-core access statistics since the core's last reset (the machine
    /// resets them when it spawns a thread on the core).
    #[must_use]
    pub fn stats(&self, core: usize) -> MemAccessStats {
        self.cores[core].stats
    }

    /// Zeroes `core`'s access statistics; its cache contents stay.
    pub(crate) fn reset_stats(&mut self, core: usize) {
        self.cores[core].stats = MemAccessStats::default();
    }
}

/// Cores per sharer byte. Core `c` answers to bit `c % SHARER_BITS`, so on
/// a machine of more cores one bit stands for several, and a store probes
/// each of them.
const SHARER_BITS: usize = u8::BITS as usize;

#[inline]
fn sharer_bit(core: usize) -> u8 {
    1 << (core % SHARER_BITS)
}

/// A snoop filter (Moshovos et al., JETTY, HPCA 2001): for each block of
/// memory, which cores may hold a copy of it in their private levels. A block
/// is the largest run of words that lies inside one L1 line and one L2 line
/// (the smaller line on Table 1), so a probe that invalidates the line of a
/// word in both levels leaves the core no copy of any word of its block.
///
/// The rule that keeps it exact: a fill sets the core's bit on every block
/// its line covers, and a store clears a bit only on its own block and only
/// after probing every core the bit stands for. A clear bit therefore means
/// the core holds nothing of the block; an eviction leaves a stale set bit,
/// which costs one probe that finds nothing.
#[derive(Debug, Clone)]
struct SharerMask {
    /// One byte per block of memory, then one overflow entry that every
    /// address outside memory shares (wild speculative accesses reach the
    /// hierarchy before the bounds check): set on fill, never cleared.
    bits: Vec<u8>,
    block_words: i64,
    /// `log2(block_words)` when it is a power of two.
    block_shift: Option<u32>,
    /// Blocks an L1 line covers.
    l1_blocks: i64,
    /// Blocks an L2 line covers.
    l2_blocks: i64,
}

impl SharerMask {
    fn new(config: &MachineConfig, memory_words: usize) -> Self {
        let line_words = |c: &CacheConfig| (c.line_bytes as i64 / WORD_BYTES).max(1);
        let (l1_words, l2_words) = (line_words(&config.l1d), line_words(&config.l2));
        let block_words = gcd(l1_words, l2_words);
        SharerMask {
            bits: vec![0; memory_words.div_ceil(block_words as usize) + 1],
            block_words,
            block_shift: (block_words.count_ones() == 1).then(|| block_words.trailing_zeros()),
            l1_blocks: l1_words / block_words,
            l2_blocks: l2_words / block_words,
        }
    }

    #[inline]
    fn block_of(&self, word_addr: i64) -> i64 {
        match self.block_shift {
            Some(s) => word_addr >> s,
            None => word_addr.div_euclid(self.block_words),
        }
    }

    #[inline]
    fn slot_of_block(&self, block: i64) -> usize {
        let overflow = self.bits.len() - 1;
        usize::try_from(block).map_or(overflow, |b| b.min(overflow))
    }

    /// The entry that answers for `word_addr`.
    #[inline]
    fn slot(&self, word_addr: i64) -> usize {
        self.slot_of_block(self.block_of(word_addr))
    }

    /// Names `core` on every block of the `line_blocks`-block line holding
    /// `word_addr`: that core just filled the line.
    #[inline]
    fn mark(&mut self, core: usize, word_addr: i64, line_blocks: i64) {
        let block = self.block_of(word_addr);
        let first = match line_blocks {
            1 => block,
            n => block - block.rem_euclid(n),
        };
        for b in first..first + line_blocks {
            let slot = self.slot_of_block(b);
            self.bits[slot] |= sharer_bit(core);
        }
    }

    /// Drops `bits` from the entry `slot`; the overflow entry keeps them.
    #[inline]
    fn clear(&mut self, slot: usize, bits: u8) {
        if slot + 1 < self.bits.len() {
            self.bits[slot] &= !bits;
        }
    }
}

fn gcd(a: i64, b: i64) -> i64 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cache(assoc: usize, lines: usize) -> Cache {
        Cache::new(&CacheConfig {
            size_bytes: 64 * lines,
            assoc,
            line_bytes: 64,
            hit_latency: 1,
        })
    }

    #[test]
    fn repeat_access_hits() {
        let mut c = small_cache(2, 4);
        assert!(!c.access(100));
        assert!(c.access(100));
        assert!(c.access(101)); // same 8-word line
    }

    #[test]
    fn lru_eviction_order() {
        // 2 sets x 2 ways; lines map to sets by parity of line index.
        let mut c = small_cache(2, 4);
        // Three distinct lines in the same set (line indices 0, 2, 4 -> set 0).
        assert!(!c.access(0)); // line 0
        assert!(!c.access(16)); // line 2
        assert!(c.access(0)); // line 0 now MRU
        assert!(!c.access(32)); // line 4 evicts line 2 (LRU)
        assert!(c.access(0));
        assert!(!c.access(16)); // line 2 was evicted
    }

    #[test]
    fn invalidate_removes_line() {
        let mut c = small_cache(2, 4);
        c.access(100);
        assert!(c.contains(100));
        c.invalidate(100);
        assert!(!c.contains(100));
    }

    #[test]
    fn hierarchy_latencies_increase_with_level() {
        let cfg = MachineConfig::itanium2_cmp();
        let mut h = MemoryHierarchy::new(&cfg, 1 << 16);
        let (lat_miss, level) = h.load(0, 50_000);
        assert_eq!(level, HitLevel::Memory);
        assert_eq!(
            lat_miss,
            cfg.l1d.hit_latency + cfg.l2.hit_latency + cfg.l3.hit_latency + cfg.memory_latency
        );
        let (lat_hit, level) = h.load(0, 50_000);
        assert_eq!(level, HitLevel::L1);
        assert_eq!(lat_hit, cfg.l1d.hit_latency);
        assert!(lat_hit < lat_miss);
    }

    #[test]
    fn store_invalidates_other_cores() {
        let cfg = MachineConfig::itanium2_cmp();
        let mut h = MemoryHierarchy::new(&cfg, 1 << 16);
        // Core 1 warms the line.
        let _ = h.load(1, 8_000);
        let (lat, _) = h.load(1, 8_000);
        assert_eq!(lat, cfg.l1d.hit_latency);
        // Core 0 writes the same line -> core 1 must re-fetch (from L3, which
        // now holds the line).
        let _ = h.store(0, 8_000);
        let (lat_after, level) = h.load(1, 8_000);
        assert!(lat_after > cfg.l1d.hit_latency);
        assert_ne!(level, HitLevel::L1);
    }

    #[test]
    fn stats_accumulate_per_core() {
        let cfg = MachineConfig::test_tiny(2);
        let mut h = MemoryHierarchy::new(&cfg, 1 << 16);
        let _ = h.load(0, 2000);
        let _ = h.load(0, 2000);
        let _ = h.store(1, 3000);
        assert_eq!(h.stats(0).loads, 2);
        assert_eq!(h.stats(0).l1_hits, 1);
        assert_eq!(h.stats(1).stores, 1);
        assert_eq!(h.stats(1).loads, 0);
    }
}
