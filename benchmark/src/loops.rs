//! The seven benchmark loops, built from the public config structs.
//!
//! The configurations are deliberately spelled out here rather than taken
//! from `spice_bench::experiments::all_workload_factories`: the benchmark
//! needs the seed as an input. With seed 0 they are the committed full-size
//! figure cells, which `host::against_committed` pins.

use spice_bench::experiments::WorkloadFactory;
use spice_ir::exec::ConflictPolicy;
use spice_ir::interp::FlatMemory;
use spice_workloads::{
    BuiltKernel, ConflictConfig, ConflictListWorkload, KsConfig, KsWorkload, McfAppConfig,
    McfAppWorkload, McfConfig, McfWorkload, OtterConfig, OtterWorkload, SjengConfig, SjengWorkload,
    SpiceWorkload,
};

/// Names as they appear in the committed `BENCH_*.json` rows.
pub const ALL: [&str; 7] = [
    "ks",
    "otter",
    "181.mcf",
    "458.sjeng",
    "mcf_true",
    "list_splice",
    "mcf_app",
];

/// How a run's inputs are derived: the seed XORs into each loop's own seed,
/// `quick` selects the small test configurations, and `inject_fault` wraps
/// every loop so one expected value per job is deliberately wrong (the
/// benchmark's own failure path must count it, not panic).
#[derive(Debug, Clone, Copy)]
pub struct Inputs {
    pub seed: u64,
    pub quick: bool,
    pub inject_fault: bool,
}

fn build(name: &str, inputs: Inputs) -> Box<dyn SpiceWorkload> {
    let Inputs { seed, quick, .. } = inputs;
    // Full sizes put each traversed structure at or past the 256 KB L2 of
    // the Table 1 machine (see `paper_workload_factories`).
    let invocations = if quick { 10 } else { 14 };
    match name {
        "ks" => Box::new(KsWorkload::new(KsConfig {
            modules: if quick { 150 } else { 6_000 },
            invocations,
            d_updates_per_invocation: 8,
            seed: 0x6b73 ^ seed,
        })),
        "otter" => Box::new(OtterWorkload::new(OtterConfig {
            initial_len: if quick { 130 } else { 8_000 },
            inserts_per_invocation: 3,
            invocations,
            seed: 0x07734 ^ seed,
        })),
        "181.mcf" => Box::new(McfWorkload::new(McfConfig {
            nodes: if quick { 160 } else { 6_000 },
            invocations,
            cost_updates_per_invocation: 12,
            reparents_per_invocation: 2,
            seed: 0x006d_6366 ^ seed,
        })),
        "458.sjeng" => Box::new(SjengWorkload::new(SjengConfig {
            pieces: if quick { 24 } else { 64 },
            invocations: if quick { 20 } else { 60 },
            mutate_probability: if quick { 0.30 } else { 0.12 },
            seed: 0x736a ^ seed,
        })),
        "mcf_true" => Box::new(McfWorkload::new_faithful(McfConfig {
            nodes: if quick { 140 } else { 2_000 },
            invocations: if quick { 8 } else { 10 },
            cost_updates_per_invocation: if quick { 4 } else { 8 },
            reparents_per_invocation: 1,
            seed: 0x6d63_6601 ^ seed,
        })),
        "list_splice" => Box::new(ConflictListWorkload::new(ConflictConfig {
            len: if quick { 150 } else { 3_000 },
            invocations: if quick { 10 } else { 12 },
            conflict_rate: 0.1,
            seed: 0x0059_11CE ^ seed,
        })),
        "mcf_app" => Box::new(McfAppWorkload::new(McfAppConfig {
            nodes: if quick { 120 } else { 2_500 },
            arcs: if quick { 150 } else { 1_500 },
            pivots: if quick { 8 } else { 10 },
            seed: 0x6d63_6661 ^ seed,
        })),
        other => panic!("unknown benchmark loop {other:?}"),
    }
}

/// A factory for fresh instances of one loop under `inputs`.
pub fn factory(name: &'static str, inputs: Inputs) -> WorkloadFactory {
    Box::new(move || {
        let inner = build(name, inputs);
        if inputs.inject_fault {
            Box::new(WrongExpectation { inner, upcoming: 0 })
        } else {
            inner
        }
    })
}

/// The invocation whose expected value `--inject-fault` corrupts.
const FAULTY_INVOCATION: usize = 1;

/// Delegates everything, except that the expected result of one invocation
/// is off by one.
struct WrongExpectation {
    inner: Box<dyn SpiceWorkload>,
    upcoming: usize,
}

impl SpiceWorkload for WrongExpectation {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn description(&self) -> &'static str {
        self.inner.description()
    }
    fn loop_name(&self) -> &'static str {
        self.inner.loop_name()
    }
    fn paper_hotness(&self) -> f64 {
        self.inner.paper_hotness()
    }
    fn conflict_policy(&self) -> ConflictPolicy {
        self.inner.conflict_policy()
    }
    fn build(&mut self) -> BuiltKernel {
        self.inner.build()
    }
    fn init(&mut self, mem: &mut FlatMemory) -> Vec<i64> {
        self.upcoming = 0;
        self.inner.init(mem)
    }
    fn next_invocation(&mut self, mem: &mut FlatMemory, invocation: usize) -> Option<Vec<i64>> {
        self.upcoming = invocation + 1;
        self.inner.next_invocation(mem, invocation)
    }
    fn expected_result(&self, mem: &FlatMemory) -> Option<i64> {
        let expected = self.inner.expected_result(mem);
        if self.upcoming == FAULTY_INVOCATION {
            expected.map(|v| v.wrapping_add(1))
        } else {
            expected
        }
    }
    fn expected_iterations(&self) -> u64 {
        self.inner.expected_iterations()
    }
    fn invocations(&self) -> usize {
        self.inner.invocations()
    }
}
