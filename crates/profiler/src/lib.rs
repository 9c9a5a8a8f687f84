//! # spice-profiler — loop live-in predictability profiling (paper §6)
//!
//! The paper's value profiler decides which loops are worth
//! Spice-parallelizing by measuring, over a whole application run, how often
//! a loop's iteration live-ins repeat across consecutive invocations. It has
//! two components, both reproduced here:
//!
//! * an **instrumenter** ([`instrument::instrument_program`]) that finds
//!   candidate loops, strips reduction live-ins and inserts per-iteration
//!   recording hooks, and
//! * an **analyzer** ([`analyze::Analyzer`]) that turns the recorded live-in
//!   signatures into per-loop predictability verdicts, sampled per
//!   invocation and binned as in Figure 8.
//!
//! [`profile_workload`] glues the two to a [`spice_workloads::SpiceWorkload`]
//! driver, and [`measure_hotness`] provides the dynamic-instruction loop
//! hotness used in Table 2.
//!
//! For workloads that are whole miniature *applications* (serial phases plus
//! a hot loop, all in IR — e.g. `mcf_app`), [`measure_cycle_hotness`] drives
//! the full program, invocation by invocation, on a single core of the
//! timing simulator with per-`(function, block)` cycle attribution enabled,
//! and reports the target loop's share of all simulated cycles — Table 2's
//! `measured_hotness` column, measured rather than quoted.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod analyze;
pub mod instrument;

use std::collections::{HashMap, HashSet};

use spice_ir::exec::{ExecutionBackend, InterpBackend};
use spice_ir::interp::{run_function_with, MemPort, SysPort, DEFAULT_FUEL};
use spice_ir::loops::LoopForest;
use spice_ir::{BlockId, FuncId, Function, Program, TrapKind};
use spice_sim::SequentialSimBackend;
use spice_workloads::trace::{TraceInvocation, TraceIteration, WorkloadTrace};
use spice_workloads::{drive_loaded_workload, workload_load_options, SpiceWorkload};

pub use analyze::{Analyzer, AnalyzerConfig, LoopVerdict, PredictabilityBin};
pub use instrument::{instrument_program, Instrumentation, ProfiledLoop};

/// The shared recording pass: builds `workload`'s program, instruments every
/// candidate loop and drives every invocation on the plain interpreter
/// through the one invocation loop (result checks included). The returned
/// backend holds each invocation's `(site, live-in values)` events
/// ([`InterpBackend::profile_events`]).
///
/// # Errors
///
/// Returns the first trap or result mismatch of the instrumented run.
pub fn run_instrumented(workload: &mut dyn SpiceWorkload) -> Result<InterpBackend, String> {
    let built = workload.build();
    let options = workload_load_options(workload, &built);
    let mut program = built.program;
    let _sites = instrument_program(&mut program);
    let mut backend = InterpBackend::new();
    backend
        .load(program, built.kernel, options)
        .map_err(|e| format!("{}: load failed: {e}", workload.name()))?;
    drive_loaded_workload(workload, &mut backend)?;
    Ok(backend)
}

/// Profiles a workload: records its profile events ([`run_instrumented`])
/// and returns the per-loop predictability verdicts over the first
/// `max_invocations` invocations (all when `None`).
///
/// # Errors
///
/// Propagates failures of the instrumented run (a workload bug).
pub fn profile_workload(
    workload: &mut dyn SpiceWorkload,
    config: AnalyzerConfig,
    max_invocations: Option<usize>,
) -> Result<Vec<LoopVerdict>, String> {
    let backend = run_instrumented(workload)?;
    let mut analyzer = Analyzer::new(config);
    for events in backend
        .profile_events()
        .take(max_invocations.unwrap_or(usize::MAX))
    {
        analyzer.new_invocation();
        for (site, values) in events {
            analyzer.record(site, values);
        }
    }
    analyzer.exit_program();
    Ok(analyzer.verdicts())
}

/// Records a workload's behaviour trace: the raw per-iteration live-in
/// tuples ([`run_instrumented`]) of the **hottest profile site** (the one
/// with the most recorded events over the first `max_invocations`
/// invocations — multi-loop programs like `mcf_app` carry several hooks).
///
/// The result is the §6 profiler's input signal made portable: replaying or
/// re-analyzing the trace offline reproduces the predictability the live
/// analyzer would have measured, without re-executing the driver.
///
/// # Errors
///
/// Propagates failures of the instrumented run (a workload bug).
pub fn record_workload_trace(
    workload: &mut dyn SpiceWorkload,
    max_invocations: Option<usize>,
) -> Result<WorkloadTrace, String> {
    let backend = run_instrumented(workload)?;
    let recorded: Vec<_> = backend
        .profile_events()
        .take(max_invocations.unwrap_or(usize::MAX))
        .collect();
    // The hot site: most events over the run; lowest id breaks ties so the
    // choice is deterministic.
    let mut tally: HashMap<u32, usize> = HashMap::new();
    for (site, _) in recorded.iter().flatten() {
        *tally.entry(*site).or_insert(0) += 1;
    }
    let mut totals: Vec<(u32, usize)> = tally.into_iter().collect();
    totals.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    let site = totals.first().map_or(0, |(s, _)| *s);
    let invocations = recorded
        .iter()
        .map(|events| TraceInvocation {
            iterations: events
                .iter()
                .filter(|(s, _)| *s == site)
                .map(|(_, key)| TraceIteration {
                    key: key.to_vec(),
                    write: None,
                })
                .collect(),
        })
        .collect();
    Ok(WorkloadTrace {
        name: workload.name().to_string(),
        loop_name: workload.loop_name().to_string(),
        site,
        invocations,
    })
}

/// Re-runs the §6 analysis **offline** over a recorded trace: the keys are
/// fed through the same [`Analyzer`] (hashing, per-invocation sampling,
/// threshold, denominator rules) that live profiling uses, so a trace and
/// the run it was recorded from yield the same verdict by construction.
///
/// Returns `None` when the trace's selected site recorded no events at all
/// (every invocation empty).
#[must_use]
pub fn analyze_trace(trace: &WorkloadTrace, config: AnalyzerConfig) -> Option<LoopVerdict> {
    let mut analyzer = Analyzer::new(config);
    for inv in &trace.invocations {
        analyzer.new_invocation();
        for it in &inv.iterations {
            analyzer.record(trace.site, &it.key);
        }
    }
    analyzer.exit_program();
    analyzer
        .verdicts()
        .into_iter()
        .find(|v| v.site == trace.site)
}

/// Dynamic-instruction hotness of a loop: the fraction of all retired
/// instructions of a run that belong to the loop rooted at `header`
/// (Table 2's "hotness" column, measured the way the paper's instrumenter
/// selects candidate loops — by dynamic instruction count).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, serde::Deserialize)]
pub struct HotnessReport {
    /// Instructions retired inside the loop.
    pub loop_instructions: u64,
    /// Instructions retired in total.
    pub total_instructions: u64,
}

impl HotnessReport {
    /// Loop hotness in `[0, 1]`.
    #[must_use]
    pub fn fraction(&self) -> f64 {
        if self.total_instructions == 0 {
            0.0
        } else {
            self.loop_instructions as f64 / self.total_instructions as f64
        }
    }
}

use serde::Serialize;

/// The blocks of the profiled target loop of `f`: the loop headed by
/// `header`, or the function's largest top-level loop when `None`. Empty
/// when there is no such loop.
fn target_loop_blocks(f: &Function, header: Option<BlockId>) -> HashSet<BlockId> {
    let forest = LoopForest::of(f);
    forest
        .target_loop(header)
        .map(|id| forest.get(id).blocks.clone())
        .unwrap_or_default()
}

/// Measures the dynamic instruction counts of one run of `func`, attributing
/// instructions to the loop whose header is `header` (or to the function's
/// largest top-level loop when `header` is `None`).
///
/// # Errors
///
/// Propagates traps raised by the run.
pub fn measure_hotness(
    program: &Program,
    func: FuncId,
    header: Option<BlockId>,
    args: &[i64],
    mem: &mut impl MemPort,
    sys: &mut impl SysPort,
) -> Result<HotnessReport, TrapKind> {
    let loop_blocks = target_loop_blocks(program.func(func), header);
    let mut loop_insts: u64 = 0;
    let mut total: u64 = 0;
    run_function_with(
        program,
        func,
        args,
        mem,
        sys,
        DEFAULT_FUEL,
        |fid, block, _| {
            total += 1;
            if fid == func && loop_blocks.contains(&block) {
                loop_insts += 1;
            }
        },
    )?;
    Ok(HotnessReport {
        loop_instructions: loop_insts,
        total_instructions: total,
    })
}

/// Whole-program hotness of a loop, in *simulated cycles* (the measured
/// analogue of Table 2's "fraction of execution time" column): the cycles
/// attributed to the target loop's blocks over the cycles of the entire
/// program run, every invocation included — serial phases, calls and all.
#[derive(Debug, Clone, PartialEq)]
pub struct CycleHotnessReport {
    /// Simulated cycles attributed to the target loop's blocks.
    pub loop_cycles: u64,
    /// Simulated cycles attributed to the whole program.
    pub total_cycles: u64,
    /// Per-function cycle totals (`(name, cycles)`), in function order.
    pub per_function: Vec<(String, u64)>,
}

impl CycleHotnessReport {
    /// Loop hotness in `[0, 1]`.
    #[must_use]
    pub fn fraction(&self) -> f64 {
        if self.total_cycles == 0 {
            0.0
        } else {
            self.loop_cycles as f64 / self.total_cycles as f64
        }
    }
}

/// Measures whole-program cycle hotness of `workload`'s target loop: the
/// workload's full program (kernel function plus whatever serial-phase
/// functions it calls) runs on a [`SequentialSimBackend`] built from
/// `config`, with [`spice_sim::CycleAttribution`] enabled, over every
/// invocation the driver produces. The one invocation loop checks every
/// return value against the workload's host-computed expectation, so the
/// profile cannot silently come from a mis-executing program.
///
/// # Errors
///
/// Returns a description of the first simulation failure or result
/// mismatch.
pub fn measure_cycle_hotness(
    workload: &mut dyn SpiceWorkload,
    config: spice_sim::MachineConfig,
) -> Result<CycleHotnessReport, String> {
    let built = workload.build();
    let kernel = built.kernel;
    // Identify the target loop's blocks before the program moves into the
    // machine (same selection rule as `measure_hotness`).
    let loop_blocks = target_loop_blocks(built.program.func(kernel), built.loop_header_hint);
    if loop_blocks.is_empty() {
        return Err(format!("{}: kernel has no target loop", workload.name()));
    }

    let options = workload_load_options(workload, &built);
    let mut backend = SequentialSimBackend::new(config);
    backend
        .load(built.program, kernel, options)
        .map_err(|e| format!("{}: load failed: {e}", workload.name()))?;
    let machine = backend.machine_mut().expect("just loaded");
    machine.enable_cycle_attribution();
    drive_loaded_workload(workload, &mut backend)?;

    let machine = backend.machine().expect("just loaded");
    let attr = machine
        .cycle_attribution()
        .expect("attribution was enabled");
    let loop_cycles = loop_blocks
        .iter()
        .map(|&b| attr.block_cycles(kernel, b))
        .sum();
    let per_function = machine
        .program()
        .funcs
        .iter()
        .enumerate()
        .map(|(i, f)| (f.name.clone(), attr.func_cycles(FuncId(i as u32))))
        .collect();
    Ok(CycleHotnessReport {
        loop_cycles,
        total_cycles: attr.total_cycles(),
        per_function,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use spice_ir::interp::{FlatMemory, LocalSys};
    use spice_workloads::{ChurnListWorkload, OtterConfig, OtterWorkload};

    #[test]
    fn stable_workload_profiles_as_highly_predictable() {
        let mut wl = ChurnListWorkload::new("stable", 1.0, 30, 10, 1);
        let verdicts = profile_workload(&mut wl, AnalyzerConfig::default(), None).unwrap();
        assert_eq!(verdicts.len(), 1);
        assert_eq!(verdicts[0].bin, PredictabilityBin::High);
        assert!(verdicts[0].predictable_fraction > 0.8);
    }

    #[test]
    fn churning_workload_profiles_as_unpredictable() {
        let mut wl = ChurnListWorkload::new("churny", 0.0, 30, 10, 2);
        let verdicts = profile_workload(&mut wl, AnalyzerConfig::default(), None).unwrap();
        assert_eq!(verdicts.len(), 1);
        assert!(matches!(
            verdicts[0].bin,
            PredictabilityBin::None | PredictabilityBin::Low
        ));
    }

    #[test]
    fn otter_profile_confirms_spice_candidate() {
        // The otter list mutates only slightly between invocations, so the
        // profiler should flag its loop as good-to-highly predictable — this
        // is exactly how the paper's §6 framework would auto-select it.
        let mut wl = OtterWorkload::new(OtterConfig {
            initial_len: 60,
            inserts_per_invocation: 2,
            invocations: 12,
            seed: 3,
        });
        let verdicts = profile_workload(&mut wl, AnalyzerConfig::default(), None).unwrap();
        assert_eq!(verdicts.len(), 1);
        assert!(matches!(
            verdicts[0].bin,
            PredictabilityBin::Good | PredictabilityBin::High
        ));
    }

    #[test]
    fn hotness_of_a_list_walk_dominates_its_function() {
        let mut wl = ChurnListWorkload::new("hot", 1.0, 50, 2, 4);
        let built = wl.build();
        let mut mem = FlatMemory::for_program(&built.program, 1 << 20);
        let args = wl.init(&mut mem);
        let mut sys = LocalSys::new();
        let report = measure_hotness(
            &built.program,
            built.kernel,
            None,
            &args,
            &mut mem,
            &mut sys,
        )
        .unwrap();
        assert!(
            report.fraction() > 0.9,
            "fraction was {}",
            report.fraction()
        );
        assert!(report.total_instructions > report.loop_instructions);
    }

    #[test]
    fn cycle_hotness_of_a_pure_kernel_is_high_and_checked() {
        // A workload that is all loop: nearly every simulated cycle must be
        // attributed to the loop's blocks, and the per-function rollup must
        // cover the whole program.
        let mut wl = ChurnListWorkload::new("cyc", 1.0, 40, 3, 6);
        let report =
            measure_cycle_hotness(&mut wl, spice_sim::MachineConfig::test_tiny(1)).unwrap();
        assert!(
            report.fraction() > 0.8,
            "fraction was {}",
            report.fraction()
        );
        assert!(report.total_cycles > report.loop_cycles);
        assert_eq!(report.per_function.len(), 1);
        let per_fn_total: u64 = report.per_function.iter().map(|(_, c)| c).sum();
        assert_eq!(per_fn_total, report.total_cycles);
    }

    #[test]
    fn sampling_reduces_observed_invocations() {
        let mut wl = ChurnListWorkload::new("sampled", 1.0, 20, 20, 5);
        let config = AnalyzerConfig {
            sampling_probability: 0.3,
            ..AnalyzerConfig::default()
        };
        let verdicts = profile_workload(&mut wl, config, None).unwrap();
        assert_eq!(verdicts.len(), 1);
        assert!(verdicts[0].sampled_invocations < 20);
    }

    #[test]
    fn recorded_traces_reanalyze_to_the_live_verdict() {
        // The recorder captures the same signal the live analyzer consumes,
        // so feeding the recording back through `analyze_trace` must
        // reproduce the live profile exactly — the §6 figure derived from
        // recorded values is the measured figure.
        for (label, p) in [("stable", 1.0), ("half", 0.5), ("churny", 0.0)] {
            let mut live = ChurnListWorkload::new(label, p, 24, 8, 11);
            let verdicts = profile_workload(&mut live, AnalyzerConfig::default(), None).unwrap();
            assert_eq!(verdicts.len(), 1);

            let mut recorded = ChurnListWorkload::new(label, p, 24, 8, 11);
            let trace = record_workload_trace(&mut recorded, None).unwrap();
            assert_eq!(trace.validate(), Ok(()));
            assert_eq!(trace.invocations.len(), 8);
            let offline = analyze_trace(&trace, AnalyzerConfig::default()).unwrap();
            assert_eq!(offline.sampled_invocations, verdicts[0].sampled_invocations);
            assert_eq!(
                offline.predictable_invocations,
                verdicts[0].predictable_invocations
            );
            assert_eq!(offline.total_iterations, verdicts[0].total_iterations);
            assert_eq!(offline.bin, verdicts[0].bin, "{label}");
        }
    }

    #[test]
    fn invocation_limit_observes_a_prefix_of_the_run() {
        let make = || ChurnListWorkload::new("limited", 0.5, 24, 8, 11);
        let full = record_workload_trace(&mut make(), None).unwrap();
        let limited = record_workload_trace(&mut make(), Some(3)).unwrap();
        assert_eq!(limited.invocations[..], full.invocations[..3]);
        let verdicts = profile_workload(&mut make(), AnalyzerConfig::default(), Some(3)).unwrap();
        assert_eq!(verdicts[0].sampled_invocations, 3);
    }

    #[test]
    fn recorder_picks_the_hot_site_of_a_multi_loop_program() {
        // Otter's kernel carries more than one candidate loop; the recorder
        // must deterministically keep the one with the most events.
        let config = OtterConfig {
            initial_len: 24,
            invocations: 4,
            ..OtterConfig::default()
        };
        let mut wl = OtterWorkload::new(config.clone());
        let trace = record_workload_trace(&mut wl, None).unwrap();
        assert_eq!(trace.validate(), Ok(()));
        assert!(trace.total_iterations() > 0);
        let again = record_workload_trace(&mut OtterWorkload::new(config), None).unwrap();
        assert_eq!(
            trace.checksum(),
            again.checksum(),
            "recording is a pure function"
        );
    }
}
