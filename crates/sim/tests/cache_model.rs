//! Seeded property tests: [`Cache`] and [`MemoryHierarchy`] against a
//! reference model that keeps each set as a `Vec` in LRU order and does a
//! hit as remove + push — the semantics the flat tag store, its remembered
//! line and its move-nothing hit path must reproduce exactly. Equality is on
//! every observable: the hit / miss answer of each access, the hierarchy's
//! per-core counters, and which lines are resident.

use spice_sim::cache::{Cache, HitLevel, MemAccessStats, MemoryHierarchy, WORD_BYTES};
use spice_sim::{CacheConfig, MachineConfig};

/// splitmix64 — the tests need reproducible variety, not statistics.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> i64 {
        (self.next() % n) as i64
    }
}

/// The reference: one `Vec` of resident lines per set, least recently used
/// first.
struct RefCache {
    line_words: i64,
    assoc: usize,
    sets: Vec<Vec<i64>>,
}

impl RefCache {
    fn new(config: &CacheConfig) -> Self {
        RefCache {
            line_words: config.line_bytes as i64 / WORD_BYTES,
            assoc: config.assoc,
            sets: vec![Vec::new(); config.sets()],
        }
    }

    fn locate(&self, word_addr: i64) -> (i64, usize) {
        let line = word_addr.div_euclid(self.line_words);
        (line, line.rem_euclid(self.sets.len() as i64) as usize)
    }

    fn access(&mut self, word_addr: i64) -> bool {
        let (line, set) = self.locate(word_addr);
        let ways = &mut self.sets[set];
        if let Some(k) = ways.iter().position(|&t| t == line) {
            ways.remove(k);
            ways.push(line);
            true
        } else {
            if ways.len() == self.assoc {
                ways.remove(0);
            }
            ways.push(line);
            false
        }
    }

    fn contains(&self, word_addr: i64) -> bool {
        let (line, set) = self.locate(word_addr);
        self.sets[set].contains(&line)
    }

    fn invalidate(&mut self, word_addr: i64) {
        let (line, set) = self.locate(word_addr);
        self.sets[set].retain(|&t| t != line);
    }
}

fn geometry(sets: usize, assoc: usize, line_bytes: usize) -> CacheConfig {
    CacheConfig {
        size_bytes: sets * assoc * line_bytes,
        assoc,
        line_bytes,
        hit_latency: 1,
    }
}

/// The addresses of a stream: lines of a few sets only, three times as many
/// per set as it has ways (so sets fill, evict and still hit), on both sides
/// of address zero — a wild access reaches the hierarchy before it traps —
/// with runs that alternate between two words of one line and between two
/// lines of one set.
struct Addresses {
    line_words: i64,
    sets: i64,
    assoc: i64,
    /// `(next, the one after, accesses left)` of an alternating run.
    run: Option<(i64, i64, u32)>,
}

impl Addresses {
    fn new(config: &CacheConfig) -> Self {
        Addresses {
            line_words: config.line_bytes as i64 / WORD_BYTES,
            sets: config.sets() as i64,
            assoc: config.assoc as i64,
            run: None,
        }
    }

    /// First word of the `k`-th line the streams use in `set`.
    fn line_base(&self, set: i64, k: i64) -> i64 {
        (set + (k - self.assoc) * self.sets) * self.line_words
    }

    /// Every line a stream can touch, by its first word.
    fn lines(&self) -> impl Iterator<Item = i64> + '_ {
        (0..self.sets.min(4))
            .flat_map(move |set| (0..3 * self.assoc + 1).map(move |k| self.line_base(set, k)))
    }

    fn next(&mut self, rng: &mut Rng) -> i64 {
        if let Some((a, b, left)) = self.run {
            self.run = (left > 1).then_some((b, a, left - 1));
            return a;
        }
        let base = self.line_base(
            rng.below(self.sets.min(4) as u64),
            rng.below(3 * self.assoc as u64),
        );
        let a = base + rng.below(self.line_words as u64);
        let len = 1 + rng.below(6) as u32;
        match rng.below(10) {
            0 => self.run = Some((base + self.line_words - 1, a, len)),
            1 => self.run = Some((a + self.sets * self.line_words, a, len)),
            _ => {}
        }
        a
    }
}

fn assert_same_residency(
    cache: &Cache,
    reference: &RefCache,
    addresses: &Addresses,
    context: &str,
) {
    for addr in addresses.lines() {
        assert_eq!(
            cache.contains(addr),
            reference.contains(addr),
            "{context}: residency of the line at {addr}"
        );
    }
}

#[test]
fn cache_matches_the_per_set_vec_reference() {
    let table1 = MachineConfig::itanium2_cmp();
    let geometries = [
        ("direct-mapped", geometry(8, 1, 64)),
        ("one word per line", geometry(4, 2, 8)),
        ("three sets", geometry(3, 4, 64)),
        ("five sets, three-word lines", geometry(5, 2, 24)),
        ("table 1 l1", table1.l1d.clone()),
        ("table 1 l2", table1.l2.clone()),
        ("table 1 l3", table1.l3.clone()),
    ];
    for (name, config) in &geometries {
        for seed in 0..8u64 {
            let mut rng = Rng(seed ^ 0xcac4e);
            let mut cache = Cache::new(config);
            let mut reference = RefCache::new(config);
            let mut addresses = Addresses::new(config);
            for step in 0..4_000 {
                let context = format!("{name}, seed {seed}, step {step}");
                let addr = addresses.next(&mut rng);
                match rng.below(100) {
                    0..=79 => {
                        assert_eq!(cache.access(addr), reference.access(addr), "{context}");
                    }
                    80..=91 => {
                        cache.invalidate(addr);
                        reference.invalidate(addr);
                    }
                    _ => {
                        assert_eq!(cache.contains(addr), reference.contains(addr), "{context}");
                    }
                }
                if step % 500 == 499 {
                    assert_same_residency(&cache, &reference, &addresses, &context);
                }
            }
        }
    }
}

/// The pre-flat-store hierarchy: private L1 + L2 per core, shared L3,
/// write-invalidate between the private levels.
struct RefHierarchy {
    l1: Vec<RefCache>,
    l2: Vec<RefCache>,
    l3: RefCache,
    latencies: [u64; 4],
    stats: Vec<MemAccessStats>,
}

impl RefHierarchy {
    fn new(config: &MachineConfig) -> Self {
        RefHierarchy {
            l1: (0..config.cores)
                .map(|_| RefCache::new(&config.l1d))
                .collect(),
            l2: (0..config.cores)
                .map(|_| RefCache::new(&config.l2))
                .collect(),
            l3: RefCache::new(&config.l3),
            latencies: [
                config.l1d.hit_latency,
                config.l2.hit_latency,
                config.l3.hit_latency,
                config.memory_latency,
            ],
            stats: vec![MemAccessStats::default(); config.cores],
        }
    }

    fn access(&mut self, core: usize, addr: i64) -> (u64, HitLevel) {
        let [l1, l2, l3, memory] = self.latencies;
        let stats = &mut self.stats[core];
        if self.l1[core].access(addr) {
            stats.l1_hits += 1;
            (l1, HitLevel::L1)
        } else if self.l2[core].access(addr) {
            stats.l2_hits += 1;
            (l1 + l2, HitLevel::L2)
        } else if self.l3.access(addr) {
            stats.l3_hits += 1;
            (l1 + l2 + l3, HitLevel::L3)
        } else {
            stats.memory_accesses += 1;
            (l1 + l2 + l3 + memory, HitLevel::Memory)
        }
    }

    fn load(&mut self, core: usize, addr: i64) -> (u64, HitLevel) {
        self.stats[core].loads += 1;
        self.access(core, addr)
    }

    fn store(&mut self, core: usize, addr: i64) -> (u64, HitLevel) {
        self.stats[core].stores += 1;
        let result = self.access(core, addr);
        for other in (0..self.l1.len()).filter(|&o| o != core) {
            self.l1[other].invalidate(addr);
            self.l2[other].invalidate(addr);
        }
        result
    }
}

/// Cores interleave loads and stores over a handful of shared lines, so a
/// store keeps invalidating the line another core's L1 or L2 remembers as
/// its last access. The reference invalidates in every other core; the
/// hierarchy probes only the cores its snoop filter names. Every access's
/// latency and level, and every core's counters, must match — on one core
/// (no filter) up to ten (two cores per sharer bit), with the L1 line equal
/// to, smaller and larger than the L2 line, with lines that are not a power
/// of two words (an L1 line straddles two L2 lines), and with wild accesses
/// below zero, just past memory and far out of it.
#[test]
fn hierarchy_matches_the_reference_under_shared_line_invalidation() {
    const MEMORY_WORDS: i64 = 1 << 13;
    let table1 = MachineConfig::itanium2_cmp();
    let with_lines = |l1: CacheConfig, l2: CacheConfig| {
        let mut config = table1.clone();
        config.l1d = l1;
        config.l2 = l2;
        config.l3 = geometry(3, 4, 128);
        config
    };
    let geometries = [
        ("table 1", table1.clone()),
        (
            "small, l1 line shorter",
            with_lines(geometry(4, 2, 64), geometry(2, 4, 128)),
        ),
        (
            "equal lines",
            with_lines(geometry(4, 2, 64), geometry(4, 4, 64)),
        ),
        (
            "l1 line longer",
            with_lines(geometry(2, 2, 128), geometry(4, 4, 64)),
        ),
        (
            "six- and eight-word lines",
            with_lines(geometry(4, 2, 48), geometry(4, 4, 64)),
        ),
        (
            "three- and five-word lines",
            with_lines(geometry(5, 2, 24), geometry(3, 4, 40)),
        ),
    ];
    let wild = [-1, -(1 << 40), MEMORY_WORDS - 2, 1 << 40];
    for (name, base) in &geometries {
        for cores in [1, 2, 3, 4, 8, 10] {
            let config = base.clone().with_cores(cores);
            for seed in 0..4u64 {
                let mut rng = Rng(seed ^ 0x41e7);
                let mut hier = MemoryHierarchy::new(&config, MEMORY_WORDS as usize);
                let mut reference = RefHierarchy::new(&config);
                // Shared lines: a few hot words every core returns to, plus a
                // wider window that forces evictions at every level.
                let hot: Vec<i64> = (0..6).map(|_| rng.below(1 << 12)).collect();
                let mut last = vec![0i64; cores];
                for step in 0..3_000 {
                    let context = format!("{name}, {cores} cores, seed {seed}, step {step}");
                    let core = rng.below(cores as u64) as usize;
                    let addr = match rng.below(20) {
                        0..=9 => hot[rng.below(hot.len() as u64) as usize] + rng.below(4),
                        // Back to the line this core touched last: the
                        // remembered-line path, unless a store took it away.
                        10..=13 => last[core] ^ rng.below(2),
                        14..=17 => rng.below(MEMORY_WORDS as u64),
                        _ => wild[rng.below(wild.len() as u64) as usize] + rng.below(24),
                    };
                    last[core] = addr;
                    if rng.below(3) == 0 {
                        assert_eq!(
                            hier.store(core, addr),
                            reference.store(core, addr),
                            "{context}"
                        );
                    } else {
                        assert_eq!(
                            hier.load(core, addr),
                            reference.load(core, addr),
                            "{context}"
                        );
                    }
                }
                for core in 0..cores {
                    assert_eq!(
                        hier.stats(core),
                        reference.stats[core],
                        "{name}, {cores} cores, seed {seed}"
                    );
                }
            }
        }
    }
}
