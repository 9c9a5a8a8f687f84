//! The names this benchmark defines: six workloads, the end-to-end metrics
//! with their regression bounds, and the per-layer metrics with the
//! end-to-end metric each one is expected to move.
//!
//! `BENCHMARK.json` at the repo root is generated from these tables
//! (`spice-benchmark manifest`); a test pins the two against each other.

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct WorkloadDef {
    pub name: &'static str,
    /// One line on why the workload exists (which layer carries it).
    pub why: &'static str,
}

pub struct EndToEndDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

pub struct LayerDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Simulated statistic: repeats exactly for a fixed seed, so two commits
    /// compare exactly and any difference under a host-only change is a bug.
    pub exact: bool,
    /// The end-to-end metric (and workload) this layer metric should move.
    pub moves: &'static str,
}

/// How long one run measures, in seconds (`run_seconds` of `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 10;

pub const WORKLOADS: [WorkloadDef; 6] = [
    WorkloadDef {
        name: "seq-long",
        why: "ks, otter, 181.mcf, mcf_app sequential: one live core, so decoded dispatch and the cache model carry it; bypass for multi-core-loop work",
    },
    WorkloadDef {
        name: "spice4-clean",
        why: "ks, otter, 181.mcf at 4 threads, no squashes: the general Machine::run event scan, ChannelNet and SpecBuffer carry it",
    },
    WorkloadDef {
        name: "spice4-conflict",
        why: "mcf_true, list_splice, mcf_app at 4 threads, ~90% misspeculating: ConflictTracker, squash, resteer and re-execution carry it",
    },
    WorkloadDef {
        name: "short-invocations",
        why: "458.sjeng seq/spice2/spice4: 60 invocations of ~2.5k cycles, so per-job instantiate and per-invocation reset carry it, not dispatch",
    },
    WorkloadDef {
        name: "native-2t",
        why: "all seven loops on NativeLoopBackend with 2 threads: SharedHeap, SpecView tracking, validation, commit, worker pool; no simulator",
    },
    WorkloadDef {
        name: "farm-sweep",
        why: "run_manifest, all seven figures full size at jobs 1, artifacts to disk: touches every crate, so a slowdown on any path shows",
    },
];

pub const END_TO_END: [EndToEndDef; 3] = [
    EndToEndDef {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    // The issue asked for 10%; README.md records the spreads measured on the
    // reference host that a bound has to clear.
    EndToEndDef {
        name: "pass_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    // 0.3% spread on the sim workloads, but `native-2t` lands on 13.1 or
    // 15.1 MB per process (allocator state under threads).
    EndToEndDef {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.20,
    },
];

const fn time(name: &'static str, unit: &'static str, moves: &'static str) -> LayerDef {
    LayerDef {
        name,
        unit,
        better: Better::Lower,
        exact: false,
        moves,
    }
}

const fn exact(name: &'static str, unit: &'static str, better: Better) -> LayerDef {
    LayerDef {
        name,
        unit,
        better,
        exact: true,
        moves: SIM_EXACT,
    }
}

const fn count(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
) -> LayerDef {
    LayerDef {
        name,
        unit,
        better,
        exact: false,
        moves,
    }
}

const SHORT: &str = "pass_ms on short-invocations (<1% elsewhere)";
const SETUP: &str = "setup_s everywhere";
const INSTANTIATE: &str =
    "pass_ms on short-invocations (most), seq-long (~40%), spice4-* (20-35%); peak_rss_mb";
const SIM_RUN: &str =
    "pass_ms on seq-long (dispatch+cache), spice4-clean (event loop), spice4-conflict (tracker+recovery); 0 on native-2t";
const SIM_EXACT: &str =
    "sim.cycles / sim.speedup on spice4-*; bit-identical under host-only changes";
const SPLIT: &str = "splits pass_ms on seq-long into dispatch vs timing model";
const NATIVE: &str = "pass_ms on native-2t only";
const FARM: &str = "pass_ms on farm-sweep";
const FARM_PAR: &str = "reported, not gated (two extra passes at jobs = nproc)";
const TRACE: &str = "qualifies the trace itself";

use Better::{Higher, Lower};

pub const PER_LAYER: [LayerDef; 75] = [
    // crates/workloads: the host-side driver of each benchmark loop.
    time("workloads.construct_ms", "ms", SHORT),
    time("workloads.init_ms", "ms", SHORT),
    time("workloads.expected_result_ms", "ms", SHORT),
    time("workloads.next_invocation_ms", "ms", SHORT),
    count("workloads.invocations", "count", Higher, SHORT),
    // crates/core: preparation, per-job instantiation, per-invocation reset.
    time("core.prepare_ms", "ms", SETUP),
    time("core.instantiate_ms", "ms", INSTANTIATE),
    count("core.instantiate_share", "share", Lower, INSTANTIATE),
    time("core.start_invocation_ms", "ms", INSTANTIATE),
    time("core.teardown_ms", "ms", INSTANTIATE),
    // crates/sim: host time around Machine::run / finish_invocation.
    time("sim.run_ms", "ms", SIM_RUN),
    count("sim.run_share", "share", Lower, SIM_RUN),
    time("sim.run_ns_per_cycle", "ns", SIM_RUN),
    time("sim.run_ns_per_inst", "ns", SIM_RUN),
    time(
        "sim.host_ns_per_cycle",
        "ns",
        "pass_ms / sim.cycles on the four sim workloads",
    ),
    // crates/sim: simulated statistics, exact.
    exact("sim.cycles", "cycles", Lower),
    exact("sim.speedup", "x", Higher),
    exact("sim.retired", "count", Lower),
    exact("sim.ipc", "1/cycle", Higher),
    exact("sim.mem_stall_cycles", "cycles", Lower),
    exact("sim.recv_stall_cycles", "cycles", Lower),
    exact("sim.idle_cycles", "cycles", Lower),
    exact("sim.loads", "count", Lower),
    exact("sim.stores", "count", Lower),
    exact("sim.l1_hit_share", "share", Higher),
    exact("sim.l2_hits", "count", Higher),
    exact("sim.l3_hits", "count", Higher),
    exact("sim.memory_accesses", "count", Lower),
    exact("sim.spec_commits", "count", Higher),
    exact("sim.spec_aborts", "count", Lower),
    exact("sim.spec_conflicts", "count", Lower),
    exact("sim.committed_chunks", "count", Higher),
    exact("sim.squashed_chunks", "count", Lower),
    exact("sim.squashed_chunk_share", "share", Lower),
    exact("sim.dependence_violations", "count", Lower),
    exact("sim.misspeculated_invocation_share", "share", Lower),
    exact("sim.load_imbalance", "cv", Lower),
    // crates/ir: decode, and dispatch with no timing model.
    time("ir.decode_ms", "ms", SETUP),
    time("ir.interp_ms", "ms", SPLIT),
    count("ir.interp_retired", "count", Lower, SPLIT),
    time("ir.interp_ns_per_inst", "ns", SPLIT),
    count("sim.model_overhead_x", "x", Lower, SPLIT),
    // crates/runtime: the native backend.
    time("runtime.load_ms", "ms", SETUP),
    time("runtime.run_invocation_ms", "ms", NATIVE),
    count("runtime.committed_chunks", "count", Higher, NATIVE),
    count("runtime.squashed_chunks", "count", Lower, NATIVE),
    count("runtime.squashed_chunk_share", "share", Lower, NATIVE),
    count("runtime.dependence_violations", "count", Lower, NATIVE),
    count("runtime.overhead_x", "x", Lower, NATIVE),
    // crates/farm: the job pool and the preparation cache.
    time("farm.wall_s", "s", FARM),
    time("farm.serial_equivalent_s", "s", FARM),
    time("farm.prepare_s", "s", "setup_s on farm-sweep"),
    count("farm.jobs", "count", Higher, FARM),
    count("farm.cache_hits", "count", Higher, FARM),
    count("farm.cache_misses", "count", Lower, FARM),
    time("farm.sweep_job_s", "s", FARM),
    time("farm.table2_job_s", "s", FARM),
    time("farm.ablation_job_s", "s", FARM),
    time("farm.crosscheck_job_s", "s", FARM),
    time("farm.fig8_job_s", "s", FARM),
    time("farm.fuzz_job_s", "s", FARM),
    time("farm.pool_ns_per_job", "ns", FARM),
    count("farm.parallel_speedup", "x", Higher, FARM_PAR),
    count("farm.worker_idle_share", "share", Lower, FARM_PAR),
    count("farm.job_inflation", "x", Lower, FARM_PAR),
    // crates/profiler.
    time("profiler.record_trace_ms", "ms", FARM),
    time("profiler.analyze_trace_ms", "ms", FARM),
    time("profiler.cycle_hotness_ms", "ms", FARM),
    // crates/bench: emitters and the trace-file format; the trace itself.
    time("bench.emit_ms", "ms", FARM),
    count("bench.emit_bytes", "bytes", Lower, FARM),
    time("bench.tracefile_roundtrip_ms", "ms", FARM),
    time("bench.pass_wall_ms", "ms", "pass_ms before calibration"),
    time(
        "bench.calibration_ms",
        "ms",
        "divides every timing (nominal 18 ms)",
    ),
    count("bench.trace_overhead_share", "share", Lower, TRACE),
    count("bench.span_coverage_share", "share", Higher, TRACE),
];

/// Renders `BENCHMARK.json` from the tables above.
pub fn manifest_json() -> String {
    use spice_bench::json::string;
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": {}, \"why\": {}}}",
                string(w.name),
                string(w.why)
            )
        })
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                string(m.name),
                string(m.unit),
                string(m.better.label()),
                m.bound
            )
        })
        .collect();
    let per_layer: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                string(m.name),
                string(m.unit),
                string(m.better.label())
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"bash\", \"benchmark/run.sh\"],\n  \"paths\": [\"benchmark\"],\n  \
         \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \
         \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n")
    )
}
