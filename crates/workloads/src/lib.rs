//! # spice-workloads — benchmark loops for the Spice reproduction
//!
//! The CGO 2008 Spice paper evaluates its transformation on four loops drawn
//! from pointer-intensive applications (Table 2): the Kernighan–Lin inner
//! loop of `ks`, otter's `find_lightest_cl`, 181.mcf's `refresh_potential`
//! and 458.sjeng's `std_eval`. This crate re-implements those loop kernels in
//! `spice-ir`, together with *drivers* that rebuild the applications'
//! inter-invocation behaviour (list mutation, tree re-linking, board moves),
//! and a synthetic corpus standing in for the SPEC/Mediabench programs of the
//! paper's Figure 8 value-predictability study.
//!
//! Every workload implements [`SpiceWorkload`]: it builds an IR program with
//! the target loop, initializes the data structures in simulated memory, and
//! mutates them between invocations, exposing a host-computed expected result
//! so that both sequential and Spice-parallel executions can be checked.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod arena;
pub mod conflict;
pub mod ks;
pub mod mcf;
pub mod mcf_app;
pub mod otter;
pub mod sjeng;
pub mod suite;
pub mod trace;

use spice_ir::exec::{ConflictPolicy, LoadOptions, MisspeculationCause};
use spice_ir::interp::FlatMemory;
use spice_ir::{BlockId, FuncId, Program};

pub use spice_ir::exec::ExecutionBackend;

pub use conflict::{ConflictConfig, ConflictListWorkload};
pub use ks::{KsConfig, KsWorkload};
pub use mcf::{McfConfig, McfWorkload};
pub use mcf_app::{HostMcfApp, McfAppConfig, McfAppInstance, McfAppWorkload};
pub use otter::{OtterConfig, OtterWorkload};
pub use sjeng::{SjengConfig, SjengWorkload};
pub use suite::{
    app_benchmarks, app_benchmarks_small, conflict_benchmarks, conflict_benchmarks_small,
    fig8_corpus, ChurnListWorkload, Suite, SuiteBenchmark,
};
pub use trace::{
    fuzz_trace, synthetic_trace, FuzzConfig, TraceError, TraceInvocation, TraceIteration,
    TraceReplayWorkload, WorkloadTrace,
};

/// An IR program containing one workload's target loop.
#[derive(Debug, Clone)]
pub struct BuiltKernel {
    /// The program (globals sized for the workload's data structures).
    pub program: Program,
    /// The function containing the Spice target loop.
    pub kernel: FuncId,
    /// Header of the target loop, when the kernel has more than one
    /// top-level loop (none of the shipped workloads need it).
    pub loop_header_hint: Option<BlockId>,
}

/// A benchmark loop plus the driver that reproduces how the surrounding
/// application evolves its data structures between loop invocations.
///
/// Call order: [`build`](SpiceWorkload::build) once, then
/// [`init`](SpiceWorkload::init) on the machine's memory, then alternately
/// run the kernel (sequentially or Spice-parallelized) and call
/// [`next_invocation`](SpiceWorkload::next_invocation) until it returns
/// `None`.
///
/// Workloads are `Send`: a sweep engine hands each boxed workload to
/// whichever host thread runs its job. (They are built from owned data and
/// seeded RNGs, so this was already true structurally.)
pub trait SpiceWorkload: Send {
    /// Benchmark name (Table 2 first column).
    fn name(&self) -> &'static str;

    /// Short description (Table 2 second column).
    fn description(&self) -> &'static str;

    /// Name of the parallelized loop (Table 2 third column).
    fn loop_name(&self) -> &'static str;

    /// Fraction of whole-application execution time the paper attributes to
    /// this loop (Table 2 "hotness"); 0 for synthetic corpus entries. Since
    /// the `mcf_app` driver grew into a measured miniature application, this
    /// is a *comparison* column — Table 2's `measured_hotness` comes from
    /// profiler cycle attribution, never from this constant.
    fn paper_hotness(&self) -> f64;

    /// How execution backends must treat cross-chunk memory dependences for
    /// this workload's target loop. The suite registry used to hard-code one
    /// policy for every workload; it is a per-workload property: loops
    /// *known* dependence-free declare [`ConflictPolicy::AssumeIndependent`]
    /// and skip all read/write-set tracking, while conflict-carrying loops
    /// (and precision probes) keep the default [`ConflictPolicy::Detect`].
    /// `run_workload_on` forwards this into [`LoadOptions`].
    fn conflict_policy(&self) -> ConflictPolicy {
        ConflictPolicy::Detect
    }

    /// Builds the IR program containing the kernel.
    fn build(&mut self) -> BuiltKernel;

    /// Initializes the workload's data structures in simulated memory and
    /// returns the kernel arguments for the first invocation.
    fn init(&mut self, mem: &mut FlatMemory) -> Vec<i64>;

    /// Mutates the data structures after invocation `invocation` finished and
    /// returns the arguments for the next one, or `None` when the workload is
    /// done.
    fn next_invocation(&mut self, mem: &mut FlatMemory, invocation: usize) -> Option<Vec<i64>>;

    /// Expected kernel return value for the *upcoming* invocation, computed
    /// on the host. `None` if the workload has no scalar result to check.
    fn expected_result(&self, mem: &FlatMemory) -> Option<i64>;

    /// Rough expected iteration count per invocation (seeds the predictor's
    /// load balancer before any feedback exists).
    fn expected_iterations(&self) -> u64;

    /// Total number of invocations the driver produces.
    fn invocations(&self) -> usize;
}

/// Default heap words reserved past a workload program's globals when
/// loading it into a backend — the one heap size of every workload run
/// ([`workload_load_options`]). Every shipped workload, the fig8 corpus and
/// the full-size suite included, keeps its data structures in globals
/// (host-side arenas over global arrays) and never executes `alloc`, so the
/// heap only has to exist; the simulator backends raise it to their
/// machine's own reservation.
pub const DEFAULT_WORKLOAD_HEAP_WORDS: usize = 256 * 1024;

/// Aggregate result of driving one workload over one backend.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BackendRunSummary {
    /// Backend that executed the workload.
    pub backend: &'static str,
    /// Invocations executed.
    pub invocations: usize,
    /// Sum of per-invocation costs (cycles or wall nanoseconds — one unit
    /// per backend, per [`spice_ir::exec::ExecutionCost`]).
    pub total_cost: u128,
    /// Kernel return value of every invocation, in order.
    pub return_values: Vec<Option<i64>>,
    /// Number of invocations with at least one squashed chunk.
    pub misspeculated_invocations: usize,
    /// Total speculative chunks committed across all invocations.
    pub committed_chunks: usize,
    /// Total speculative chunks squashed across all invocations.
    pub squashed_chunks: usize,
    /// Squashes caused by a cross-chunk memory dependence violation
    /// ([`MisspeculationCause::DependenceViolation`]) — nonzero whenever the
    /// conflict-detection subsystem actually fired.
    pub dependence_violations: usize,
    /// Per-invocation, per-thread work counters (main thread first).
    pub work_per_thread: Vec<Vec<u64>>,
}

impl BackendRunSummary {
    /// Fraction of invocations that mis-speculated.
    #[must_use]
    pub fn misspeculation_rate(&self) -> f64 {
        if self.invocations == 0 {
            return 0.0;
        }
        self.misspeculated_invocations as f64 / self.invocations as f64
    }

    /// Mean, over invocations, of the coefficient of variation of per-thread
    /// work — 0 means perfectly balanced chunks (shared definition:
    /// [`spice_ir::exec::work_imbalance`]).
    #[must_use]
    pub fn load_imbalance(&self) -> f64 {
        spice_ir::exec::work_imbalance(&self.work_per_thread)
    }
}

/// Drives `workload` over `backend` from build to the last invocation:
/// `load`, then [`drive_loaded_workload`] — any workload on any execution
/// substrate (Spice on the timing simulator or native threads, sequential on
/// one simulated core or the plain interpreter).
///
/// Every invocation's return value is checked against the workload's
/// host-computed expectation; a mismatch is an error (speculation must never
/// change results — paper §3).
///
/// # Errors
///
/// Returns a description of the first backend failure or result mismatch.
pub fn run_workload_on(
    workload: &mut dyn SpiceWorkload,
    backend: &mut dyn ExecutionBackend,
) -> Result<BackendRunSummary, String> {
    run_workload_on_with(workload, backend, |o| o)
}

/// [`run_workload_on`] with a hook adjusting the [`LoadOptions`] the
/// workload derives before the backend sees them — how a sweep overrides a
/// single knob (e.g. the conflict-detection granularity) without a parallel
/// copy of the drive loop.
///
/// # Errors
///
/// Returns a description of the first backend failure or result mismatch.
pub fn run_workload_on_with(
    workload: &mut dyn SpiceWorkload,
    backend: &mut dyn ExecutionBackend,
    adjust: impl FnOnce(LoadOptions) -> LoadOptions,
) -> Result<BackendRunSummary, String> {
    let built = workload.build();
    let options = adjust(workload_load_options(workload, &built));
    backend
        .load(built.program, built.kernel, options)
        .map_err(|e| format!("{}: load failed: {e}", workload.name()))?;
    drive_loaded_workload(workload, backend)
}

/// The [`LoadOptions`] a workload asks for: the default heap reservation,
/// its expected first-invocation iteration count, its declared conflict
/// policy and its loop-header hint.
#[must_use]
pub fn workload_load_options(workload: &dyn SpiceWorkload, built: &BuiltKernel) -> LoadOptions {
    let mut options = LoadOptions::new(
        DEFAULT_WORKLOAD_HEAP_WORDS,
        Some(workload.expected_iterations()),
    )
    .with_conflict_policy(workload.conflict_policy());
    options.loop_header = built.loop_header_hint;
    options
}

/// Drives an already-loaded workload over `backend`: `init`, then the
/// invocation loop with per-invocation expected-result checks. This is the
/// only invocation loop in the workspace's library code: sequential
/// baselines, Spice runs, profiling, trace recording, cycle attribution,
/// event tracing and failure capture all arm their observers on the backend
/// before calling it and read them off the backend afterwards.
///
/// # Errors
///
/// Returns a description of the first backend failure or result mismatch.
pub fn drive_loaded_workload(
    workload: &mut dyn SpiceWorkload,
    backend: &mut dyn ExecutionBackend,
) -> Result<BackendRunSummary, String> {
    let mut args = workload.init(backend.mem_mut());
    let mut summary = BackendRunSummary {
        backend: backend.name(),
        invocations: 0,
        total_cost: 0,
        return_values: Vec::new(),
        misspeculated_invocations: 0,
        committed_chunks: 0,
        squashed_chunks: 0,
        dependence_violations: 0,
        work_per_thread: Vec::new(),
    };
    let mut inv = 0usize;
    loop {
        let expected = workload.expected_result(backend.mem());
        let report = backend
            .run_invocation(&args)
            .map_err(|e| format!("{}: invocation {inv}: {e}", workload.name()))?;
        if let Some(e) = expected {
            if report.return_value != Some(e) {
                return Err(format!(
                    "{}: backend `{}` returned {:?}, expected {e} (invocation {inv})",
                    workload.name(),
                    backend.name(),
                    report.return_value
                ));
            }
        }
        summary.invocations += 1;
        summary.total_cost += report.cost.magnitude();
        summary.return_values.push(report.return_value);
        if report.misspeculated {
            summary.misspeculated_invocations += 1;
        }
        summary.committed_chunks += report.committed_chunks;
        summary.squashed_chunks += report.squashed_chunks;
        summary.dependence_violations += report
            .misspeculation_causes()
            .iter()
            .filter(|c| matches!(c, MisspeculationCause::DependenceViolation { .. }))
            .count();
        summary.work_per_thread.push(report.work_per_thread.clone());
        match workload.next_invocation(backend.mem_mut(), inv) {
            Some(a) => {
                args = a;
                inv += 1;
            }
            None => break,
        }
    }
    Ok(summary)
}

/// Test helper: verifies `workload`'s program, then drives it to completion
/// on the plain interpreter through the one invocation loop — every return
/// value checked against the host mirror.
#[cfg(test)]
pub(crate) fn run_on_interpreter(workload: &mut dyn SpiceWorkload) -> BackendRunSummary {
    let name = workload.name();
    spice_ir::verify::verify_program(&workload.build().program)
        .unwrap_or_else(|e| panic!("{name} failed verification: {e:?}"));
    run_workload_on(workload, &mut spice_ir::exec::InterpBackend::new())
        .unwrap_or_else(|e| panic!("{e}"))
}

/// The paper's four evaluation loops (Table 2 / Figure 7) in small
/// configurations, for quick test runs.
#[must_use]
pub fn paper_benchmarks_small() -> Vec<Box<dyn SpiceWorkload>> {
    vec![
        Box::new(KsWorkload::new(KsConfig {
            modules: 120,
            invocations: 12,
            d_updates_per_invocation: 3,
            seed: 1,
        })),
        Box::new(OtterWorkload::new(OtterConfig {
            initial_len: 120,
            inserts_per_invocation: 2,
            invocations: 12,
            seed: 2,
        })),
        Box::new(McfWorkload::new(McfConfig {
            nodes: 150,
            invocations: 12,
            cost_updates_per_invocation: 4,
            reparents_per_invocation: 1,
            seed: 3,
        })),
        Box::new(SjengWorkload::new(SjengConfig {
            pieces: 40,
            invocations: 16,
            mutate_probability: 0.3,
            seed: 4,
        })),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use spice_ir::exec::{BackendError, ExecutionReport, InterpBackend};

    /// A probe [`ExecutionBackend`] that records the [`LoadOptions`] it was
    /// handed and otherwise is the plain interpreter — the probe behind
    /// `conflict_policy_reaches_load_options_for_every_workload`.
    #[derive(Default)]
    struct RecordingBackend {
        inner: InterpBackend,
        seen: Option<LoadOptions>,
    }

    impl ExecutionBackend for RecordingBackend {
        fn name(&self) -> &'static str {
            "recording-mock"
        }

        fn threads(&self) -> usize {
            1
        }

        fn load(
            &mut self,
            program: Program,
            kernel: FuncId,
            options: LoadOptions,
        ) -> Result<(), BackendError> {
            self.seen = Some(options);
            self.inner.load(program, kernel, options)
        }

        fn mem(&self) -> &FlatMemory {
            self.inner.mem()
        }

        fn mem_mut(&mut self) -> &mut FlatMemory {
            self.inner.mem_mut()
        }

        fn run_invocation(&mut self, args: &[i64]) -> Result<ExecutionReport, BackendError> {
            self.inner.run_invocation(args)
        }
    }

    /// Every registered workload's declared `conflict_policy` must arrive in
    /// the `LoadOptions` the backend sees — the registry used to hard-code
    /// one policy for all workloads, which silently mis-configured any loop
    /// whose requirement differed from the global default.
    #[test]
    fn conflict_policy_reaches_load_options_for_every_workload() {
        let registries: Vec<Box<dyn SpiceWorkload>> = paper_benchmarks_small()
            .into_iter()
            .chain(conflict_benchmarks_small())
            .chain(app_benchmarks_small())
            .collect();
        let mut seen_detect = false;
        let mut seen_independent = false;
        for mut w in registries {
            let name = w.name();
            let declared = w.conflict_policy();
            let mut backend = RecordingBackend::default();
            run_workload_on(w.as_mut(), &mut backend)
                .unwrap_or_else(|e| panic!("{name}: mock run failed: {e}"));
            let received = backend.seen.expect("load was called").conflict_policy;
            assert_eq!(
                received, declared,
                "{name}: LoadOptions carried {received:?} but the workload declared {declared:?}"
            );
            match declared {
                ConflictPolicy::Detect => seen_detect = true,
                ConflictPolicy::AssumeIndependent => seen_independent = true,
            }
        }
        // The suite must exercise both values, or the plumbing test proves
        // nothing beyond the default.
        assert!(seen_detect && seen_independent);
    }

    #[test]
    fn paper_benchmark_set_matches_table2() {
        let names: Vec<&str> = paper_benchmarks_small().iter().map(|w| w.name()).collect();
        assert_eq!(names, vec!["ks", "otter", "181.mcf", "458.sjeng"]);
        for w in paper_benchmarks_small() {
            assert!(w.paper_hotness() > 0.0 && w.paper_hotness() <= 1.0);
            assert!(!w.description().is_empty());
            assert!(!w.loop_name().is_empty());
            assert!(w.invocations() > 1);
        }
    }

    fn verify_and_run_sequentially(registry: Vec<Box<dyn SpiceWorkload>>) {
        for mut w in registry {
            let summary = run_on_interpreter(w.as_mut());
            assert_eq!(summary.invocations, w.invocations(), "{}", w.name());
        }
    }

    #[test]
    fn conflict_benchmarks_build_and_run_sequentially() {
        let names: Vec<&str> = conflict_benchmarks().iter().map(|w| w.name()).collect();
        assert_eq!(names, vec!["mcf_true", "list_splice"]);
        verify_and_run_sequentially(conflict_benchmarks_small());
    }

    #[test]
    fn every_paper_benchmark_builds_and_runs_sequentially() {
        verify_and_run_sequentially(paper_benchmarks_small());
    }
}
