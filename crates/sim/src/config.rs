//! Machine configuration — the paper's Table 1.
//!
//! The evaluation machine of the paper is a 4-core Itanium 2 CMP modelled in
//! the Liberty Simulation Environment. This reproduction keeps the structural
//! parameters that determine the *shape* of the results (cache sizes and
//! latencies, main-memory latency, inter-core communication latency, issue
//! width) and drops the micro-architectural details that only shift absolute
//! cycle counts.

use serde::{Deserialize, Serialize};

/// Configuration of a single cache level.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: usize,
    /// Associativity (ways per set).
    pub assoc: usize,
    /// Line size in bytes.
    pub line_bytes: usize,
    /// Latency, in cycles, of a hit at this level.
    pub hit_latency: u64,
}

impl CacheConfig {
    /// Number of sets implied by the size, associativity and line size.
    ///
    /// # Panics
    ///
    /// Panics if the configuration does not divide evenly.
    #[must_use]
    pub fn sets(&self) -> usize {
        let lines = self.size_bytes / self.line_bytes;
        assert!(
            lines.is_multiple_of(self.assoc) && lines > 0,
            "cache size must be a multiple of assoc * line size"
        );
        lines / self.assoc
    }
}

/// Functional-unit latencies of one core.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CoreConfig {
    /// Issue width (Table 1: 6). Used to scale the cost of simple ALU
    /// operations: `ceil(n_alu / issue_width)` cycles are charged for a run
    /// of `n_alu` back-to-back ALU operations.
    pub issue_width: u64,
    /// Latency of an integer multiply.
    pub mul_latency: u64,
    /// Latency of an integer divide.
    pub div_latency: u64,
    /// Latency charged for branch instructions.
    pub branch_latency: u64,
    /// Cost of executing a speculation-control instruction
    /// (`spec.begin` / `spec.commit` / `spec.abort`).
    pub spec_op_latency: u64,
}

impl CoreConfig {
    /// Base functional-unit latency of an instruction class, before memory
    /// hierarchy latency (loads and stores report 0 here; the hierarchy walk
    /// is charged separately).
    #[must_use]
    pub fn latency_of(&self, class: spice_ir::InstClass) -> u64 {
        use spice_ir::InstClass;
        match class {
            InstClass::IntAlu | InstClass::Other => 1,
            InstClass::IntMul => self.mul_latency,
            InstClass::IntDiv => self.div_latency,
            InstClass::Branch => self.branch_latency,
            InstClass::Load | InstClass::Store => 0,
            InstClass::Send | InstClass::Recv => 1,
            InstClass::Spec => self.spec_op_latency,
            InstClass::Resteer => 1,
        }
    }
}

/// Whole-machine configuration.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MachineConfig {
    /// Number of cores.
    pub cores: usize,
    /// Per-core functional-unit model.
    pub core: CoreConfig,
    /// Private first-level data cache.
    pub l1d: CacheConfig,
    /// Private second-level cache.
    pub l2: CacheConfig,
    /// Shared third-level cache.
    pub l3: CacheConfig,
    /// Main memory latency in cycles (Table 1: 141).
    pub memory_latency: u64,
    /// Latency, in cycles, for a scalar sent by one core to become visible
    /// to a receive on another core. The paper's cores communicate through
    /// the shared, snooped L3 bus; the default approximates an L3 round trip.
    pub inter_core_latency: u64,
    /// Upper bound on simulated cycles before a run is declared hung.
    pub max_cycles: u64,
    /// Conflict-detection granularity as a power-of-two word count per
    /// tracked grain: `0` is exact word detection, `3` models 64-byte-line
    /// hardware tag comparison (with its false conflicts between distinct
    /// words sharing a line).
    pub conflict_granularity_log2: u8,
}

impl MachineConfig {
    /// The paper's Table 1 machine: a 4-core Itanium 2 CMP.
    #[must_use]
    pub fn itanium2_cmp() -> Self {
        MachineConfig {
            cores: 4,
            core: CoreConfig {
                issue_width: 6,
                mul_latency: 3,
                div_latency: 24,
                branch_latency: 1,
                spec_op_latency: 2,
            },
            l1d: CacheConfig {
                size_bytes: 16 * 1024,
                assoc: 4,
                line_bytes: 64,
                hit_latency: 1,
            },
            l2: CacheConfig {
                size_bytes: 256 * 1024,
                assoc: 8,
                line_bytes: 128,
                hit_latency: 7, // Table 1 gives 5/7/9 depending on access type
            },
            l3: CacheConfig {
                size_bytes: 1536 * 1024,
                assoc: 12,
                line_bytes: 128,
                hit_latency: 12,
            },
            memory_latency: 141,
            inter_core_latency: 16,
            max_cycles: 2_000_000_000,
            conflict_granularity_log2: 0,
        }
    }

    /// Same machine with a different core count (the paper reports 2- and
    /// 4-thread results on the same substrate).
    #[must_use]
    pub fn with_cores(mut self, cores: usize) -> Self {
        self.cores = cores;
        self
    }

    /// A tiny machine for unit tests: 1-cycle memory, no caches to speak of.
    #[must_use]
    pub fn test_tiny(cores: usize) -> Self {
        MachineConfig {
            cores,
            core: CoreConfig {
                issue_width: 1,
                mul_latency: 1,
                div_latency: 1,
                branch_latency: 1,
                spec_op_latency: 1,
            },
            l1d: CacheConfig {
                size_bytes: 1024,
                assoc: 2,
                line_bytes: 64,
                hit_latency: 1,
            },
            l2: CacheConfig {
                size_bytes: 4096,
                assoc: 2,
                line_bytes: 64,
                hit_latency: 2,
            },
            l3: CacheConfig {
                size_bytes: 16 * 1024,
                assoc: 4,
                line_bytes: 64,
                hit_latency: 4,
            },
            memory_latency: 10,
            inter_core_latency: 4,
            max_cycles: 50_000_000,
            conflict_granularity_log2: 0,
        }
    }

    /// Renders the configuration as the rows of the paper's Table 1.
    #[must_use]
    pub fn table1_rows(&self) -> Vec<(String, String)> {
        vec![
            (
                "Core Functional Units".to_string(),
                format!("{} issue, in-order model", self.core.issue_width),
            ),
            (
                "L1D Cache".to_string(),
                format!(
                    "{} cycle, {} KB, {}-way, {}B lines, write-through",
                    self.l1d.hit_latency,
                    self.l1d.size_bytes / 1024,
                    self.l1d.assoc,
                    self.l1d.line_bytes
                ),
            ),
            (
                "L2 Cache".to_string(),
                format!(
                    "{} cycles, {} KB, {}-way, {}B lines, write-back",
                    self.l2.hit_latency,
                    self.l2.size_bytes / 1024,
                    self.l2.assoc,
                    self.l2.line_bytes
                ),
            ),
            (
                "Shared L3 Cache".to_string(),
                format!(
                    "{} cycles, {:.1} MB, {}-way, {}B lines, write-back",
                    self.l3.hit_latency,
                    self.l3.size_bytes as f64 / (1024.0 * 1024.0),
                    self.l3.assoc,
                    self.l3.line_bytes
                ),
            ),
            (
                "Main Memory".to_string(),
                format!("Latency: {} cycles", self.memory_latency),
            ),
            (
                "Coherence".to_string(),
                "Snoop-based, write-invalidate protocol".to_string(),
            ),
            (
                "Inter-core communication".to_string(),
                format!("{} cycles (shared L3 bus)", self.inter_core_latency),
            ),
            ("Cores".to_string(), format!("{}", self.cores)),
        ]
    }
}

impl Default for MachineConfig {
    fn default() -> Self {
        MachineConfig::itanium2_cmp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_machine_matches_paper_parameters() {
        let c = MachineConfig::itanium2_cmp();
        assert_eq!(c.cores, 4);
        assert_eq!(c.core.issue_width, 6);
        assert_eq!(c.l1d.size_bytes, 16 * 1024);
        assert_eq!(c.l1d.assoc, 4);
        assert_eq!(c.l1d.line_bytes, 64);
        assert_eq!(c.l1d.hit_latency, 1);
        assert_eq!(c.l2.size_bytes, 256 * 1024);
        assert_eq!(c.l2.assoc, 8);
        assert_eq!(c.l3.size_bytes, 1536 * 1024);
        assert_eq!(c.l3.assoc, 12);
        assert_eq!(c.memory_latency, 141);
    }

    #[test]
    fn cache_sets_divide_evenly() {
        let c = MachineConfig::itanium2_cmp();
        assert_eq!(c.l1d.sets(), 16 * 1024 / 64 / 4);
        assert_eq!(c.l2.sets(), 256 * 1024 / 128 / 8);
        assert_eq!(c.l3.sets(), 1536 * 1024 / 128 / 12);
    }

    #[test]
    fn with_cores_only_changes_core_count() {
        let c = MachineConfig::itanium2_cmp().with_cores(2);
        assert_eq!(c.cores, 2);
        assert_eq!(c.memory_latency, 141);
    }

    #[test]
    fn table1_rows_mention_all_levels() {
        let rows = MachineConfig::itanium2_cmp().table1_rows();
        let rows: Vec<(&str, &str)> = rows.iter().map(|(k, v)| (&k[..], &v[..])).collect();
        assert_eq!(
            rows,
            [
                ("Core Functional Units", "6 issue, in-order model"),
                (
                    "L1D Cache",
                    "1 cycle, 16 KB, 4-way, 64B lines, write-through"
                ),
                (
                    "L2 Cache",
                    "7 cycles, 256 KB, 8-way, 128B lines, write-back"
                ),
                (
                    "Shared L3 Cache",
                    "12 cycles, 1.5 MB, 12-way, 128B lines, write-back"
                ),
                ("Main Memory", "Latency: 141 cycles"),
                ("Coherence", "Snoop-based, write-invalidate protocol"),
                ("Inter-core communication", "16 cycles (shared L3 bus)"),
                ("Cores", "4"),
            ]
        );
    }

    #[test]
    #[should_panic(expected = "multiple")]
    fn bad_cache_geometry_panics() {
        let c = CacheConfig {
            size_bytes: 100,
            assoc: 3,
            line_bytes: 64,
            hit_latency: 1,
        };
        let _ = c.sets();
    }
}
