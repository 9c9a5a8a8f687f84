//! The simulator [`ExecutionBackend`] and backend selection by value.
//!
//! [`SimBackend`] packages the whole timing-model path — loop analysis, the
//! Spice code-generating transformation, a [`Machine`] and a
//! [`SpiceRunner`] — behind the shared [`ExecutionBackend`] API from
//! `spice-ir`, so consumers can run a workload on the cycle-accurate Table 1
//! machine or on real OS threads ([`NativeLoopBackend`]) through one call
//! site. Instantiated from a *sequential* [`PreparedProgram`] it is the
//! one-core baseline instead ([`SequentialSimBackend`] underneath), so a
//! sweep drives both kinds of cell through the same code.
//! [`BackendChoice`] / [`make_backend`] are the by-value selector the
//! workload suite and the experiment harness use.

use spice_ir::exec::{BackendError, ExecutionBackend, ExecutionReport, LoadOptions};
use spice_ir::interp::FlatMemory;
use spice_ir::{FuncId, Program};
use spice_runtime::NativeLoopBackend;
use spice_sim::{Machine, MachineConfig, SequentialSimBackend};

use crate::pipeline::SpiceRunner;
use crate::predictor::PredictorOptions;
use crate::prepared::{PreparedKind, PreparedProgram};

/// The timing-simulator execution backend: analysis + transformation +
/// cycle-stepped simulation, carrying the centralized predictor across
/// invocations.
#[derive(Debug)]
pub struct SimBackend {
    config: MachineConfig,
    threads: usize,
    predictor: PredictorOptions,
    /// Trace capacity requested through `enable_trace`, armed on every
    /// machine this backend loads (tracing may be requested before `load`).
    trace_capacity: Option<usize>,
    loaded: Option<SimLoaded>,
}

#[derive(Debug)]
enum SimLoaded {
    Spice {
        machine: Machine,
        runner: SpiceRunner,
    },
    Sequential(SequentialSimBackend),
}

impl SimLoaded {
    fn machine(&self) -> &Machine {
        match self {
            SimLoaded::Spice { machine, .. } => machine,
            SimLoaded::Sequential(b) => b.machine().expect("built from a machine"),
        }
    }

    fn machine_mut(&mut self) -> &mut Machine {
        match self {
            SimLoaded::Spice { machine, .. } => machine,
            SimLoaded::Sequential(b) => b.machine_mut().expect("built from a machine"),
        }
    }

    fn runner(&self) -> Option<&SpiceRunner> {
        match self {
            SimLoaded::Spice { runner, .. } => Some(runner),
            SimLoaded::Sequential(_) => None,
        }
    }
}

impl SimBackend {
    /// Creates a backend simulating the paper's Table 1 machine with
    /// `threads` cores.
    ///
    /// # Panics
    ///
    /// Panics if `threads < 2`.
    #[must_use]
    pub fn new(threads: usize) -> Self {
        SimBackend::with_config(MachineConfig::itanium2_cmp(), threads)
    }

    /// Creates a backend with the reduced test machine (small caches, short
    /// latencies) — fast enough for unit tests.
    ///
    /// # Panics
    ///
    /// Panics if `threads < 2`.
    #[must_use]
    pub fn tiny(threads: usize) -> Self {
        SimBackend::with_config(MachineConfig::test_tiny(threads), threads)
    }

    /// Creates a backend simulating an arbitrary machine configuration.
    ///
    /// # Panics
    ///
    /// Panics if `threads < 2`.
    #[must_use]
    pub fn with_config(config: MachineConfig, threads: usize) -> Self {
        assert!(threads >= 2, "Spice needs at least two threads");
        SimBackend {
            config,
            threads,
            predictor: PredictorOptions::default(),
            trace_capacity: None,
            loaded: None,
        }
    }

    /// Overrides the predictor options (re-memoization, load balancing).
    #[must_use]
    pub fn with_predictor(mut self, predictor: PredictorOptions) -> Self {
        self.predictor = predictor;
        self
    }

    /// A backend already loaded from a shared preparation — the sweep path:
    /// the preparation is built once, and every job instantiates its own
    /// machine (and, for a Spice preparation, runner) over the shared
    /// decoded program. A sequential preparation yields the one-core
    /// baseline: same API, no runner, `threads() == 1`.
    #[must_use]
    pub fn from_prepared(prepared: &PreparedProgram) -> Self {
        let mut backend = SimBackend {
            config: prepared.config().clone(),
            threads: prepared.threads(),
            predictor: PredictorOptions::default(),
            trace_capacity: None,
            loaded: None,
        };
        backend.load_prepared(prepared);
        backend
    }

    /// Loads this backend from a shared preparation (see
    /// [`SimBackend::from_prepared`]).
    pub fn load_prepared(&mut self, prepared: &PreparedProgram) {
        let mut machine = prepared.machine();
        if let Some(capacity) = self.trace_capacity {
            machine.enable_trace(capacity);
        }
        self.threads = prepared.threads();
        self.loaded = Some(match prepared.kind() {
            PreparedKind::Spice(spice) => SimLoaded::Spice {
                machine,
                runner: SpiceRunner::new((**spice).clone()),
            },
            PreparedKind::Sequential(kernel) => {
                SimLoaded::Sequential(SequentialSimBackend::from_machine(machine, *kernel))
            }
        });
    }

    /// The runner driving the loaded Spice program, for stats inspection.
    /// `None` before `load` and for a sequential preparation.
    #[must_use]
    pub fn runner(&self) -> Option<&SpiceRunner> {
        self.loaded.as_ref().and_then(SimLoaded::runner)
    }

    /// The threshold assignments the on-core centralized predictor step
    /// wrote for the most recent invocation, reconstructed from simulated
    /// memory (ordered by `sva` row). `None` before `load` and for a
    /// sequential preparation.
    #[must_use]
    pub fn last_plan(&self) -> Option<&[crate::predictor::Assignment]> {
        self.runner().map(SpiceRunner::last_plan)
    }

    /// The loaded machine, for observability drivers (tracing, snapshots,
    /// `run_until`). `None` before `load`.
    #[must_use]
    pub fn machine(&self) -> Option<&Machine> {
        self.loaded.as_ref().map(SimLoaded::machine)
    }

    /// Mutable access to the loaded machine (enable tracing/snapshots,
    /// watch addresses). `None` before `load`.
    pub fn machine_mut(&mut self) -> Option<&mut Machine> {
        self.loaded.as_mut().map(SimLoaded::machine_mut)
    }

    /// Splits the loaded backend into its runner and machine for manual
    /// invocation driving ([`SpiceRunner::start_invocation`] /
    /// [`Machine::run_until`] / [`SpiceRunner::finish_invocation`]).
    /// `None` before `load` and for a sequential preparation.
    pub fn parts_mut(&mut self) -> Option<(&mut SpiceRunner, &mut Machine)> {
        match self.loaded.as_mut()? {
            SimLoaded::Spice { machine, runner } => Some((runner, machine)),
            SimLoaded::Sequential(_) => None,
        }
    }
}

impl ExecutionBackend for SimBackend {
    fn name(&self) -> &'static str {
        match &self.loaded {
            Some(SimLoaded::Sequential(b)) => b.name(),
            _ => "sim",
        }
    }

    fn threads(&self) -> usize {
        self.threads
    }

    fn load(
        &mut self,
        program: Program,
        kernel: FuncId,
        options: LoadOptions,
    ) -> Result<(), BackendError> {
        // One preparation logic for every caller: a direct `load` builds a
        // PreparedProgram and instantiates it once; a sweep builds the same
        // PreparedProgram once and instantiates it per job — so the two
        // paths cannot drift apart.
        let prepared = PreparedProgram::spice(
            self.config.clone(),
            self.threads,
            self.predictor,
            program,
            kernel,
            options,
        )?;
        self.load_prepared(&prepared);
        Ok(())
    }

    fn mem(&self) -> &FlatMemory {
        self.machine().expect("load() first").mem()
    }

    fn mem_mut(&mut self) -> &mut FlatMemory {
        self.machine_mut().expect("load() first").mem_mut()
    }

    fn run_invocation(&mut self, args: &[i64]) -> Result<ExecutionReport, BackendError> {
        let (machine, runner) = match self.loaded.as_mut().ok_or(BackendError::NotLoaded)? {
            SimLoaded::Spice { machine, runner } => (machine, runner),
            SimLoaded::Sequential(b) => return b.run_invocation(args),
        };
        let report = runner.run_invocation(machine, args)?;

        let worker_cores: Vec<usize> = runner.spice().workers.iter().map(|w| w.core).collect();
        Ok(report.to_execution_report(&worker_cores))
    }

    fn enable_trace(&mut self, capacity: usize) {
        self.trace_capacity = Some(capacity);
        if let Some(m) = self.machine_mut() {
            m.enable_trace(capacity);
        }
    }

    fn trace(&self) -> Option<&spice_ir::TraceRecorder> {
        self.machine().and_then(Machine::trace)
    }
}

/// Which execution substrate to run a Spice loop on — selected by value by
/// the workload suite, the experiment harness and the examples.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendChoice {
    /// Cycle-accurate Table 1 machine (full latencies).
    Sim,
    /// Reduced test machine (fast, for unit tests).
    SimTiny,
    /// Native OS threads through the interpreting chunk runtime.
    Native,
}

impl BackendChoice {
    /// Every available backend, for exhaustive cross-checks.
    #[must_use]
    pub fn all() -> [BackendChoice; 3] {
        [
            BackendChoice::Sim,
            BackendChoice::SimTiny,
            BackendChoice::Native,
        ]
    }
}

impl std::fmt::Display for BackendChoice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BackendChoice::Sim => f.write_str("sim"),
            BackendChoice::SimTiny => f.write_str("sim-tiny"),
            BackendChoice::Native => f.write_str("native"),
        }
    }
}

/// Instantiates the chosen backend with `threads` threads.
///
/// # Panics
///
/// Panics if `threads < 2`.
#[must_use]
pub fn make_backend(choice: BackendChoice, threads: usize) -> Box<dyn ExecutionBackend> {
    make_backend_with(choice, threads, PredictorOptions::default())
}

/// Instantiates the chosen backend with explicit predictor options (the
/// native backend's predictor is structural, so they apply to the simulator
/// only; both take the first-invocation work estimate from [`LoadOptions`]).
#[must_use]
pub fn make_backend_with(
    choice: BackendChoice,
    threads: usize,
    predictor: PredictorOptions,
) -> Box<dyn ExecutionBackend> {
    match choice {
        BackendChoice::Sim => Box::new(SimBackend::new(threads).with_predictor(predictor)),
        BackendChoice::SimTiny => Box::new(SimBackend::tiny(threads).with_predictor(predictor)),
        BackendChoice::Native => Box::new(NativeLoopBackend::new(threads)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spice_ir::exec::ExecutionCost;
    use spice_ir::fixtures::{chained_increment_program, list_min_program, write_list};

    /// The acceptance demonstration: the same loop, the same driver code,
    /// two backends, identical results.
    #[test]
    fn both_backends_agree_through_one_call_site() {
        let weights: Vec<i64> = (0..250).map(|i| ((i * 53) % 997) + 1).collect();
        let expected = *weights.iter().min().unwrap();

        for choice in [BackendChoice::SimTiny, BackendChoice::Native] {
            let (program, f, nodes, _) = list_min_program(weights.len() as i64 + 4);
            let mut backend = make_backend(choice, 4);
            backend
                .load(program, f, LoadOptions::new(Some(weights.len() as u64)))
                .unwrap();
            let head = write_list(backend.mem_mut(), nodes, &weights);
            for inv in 0..3 {
                let report = backend.run_invocation(&[head]).unwrap();
                assert_eq!(
                    report.return_value,
                    Some(expected),
                    "{choice} invocation {inv}"
                );
            }
        }
    }

    #[test]
    fn sim_backend_reports_cycles_and_workers() {
        let weights: Vec<i64> = (0..120).map(|i| i + 3).collect();
        let (program, f, nodes, _) = list_min_program(weights.len() as i64 + 4);
        let mut backend = SimBackend::tiny(2);
        backend
            .load(program, f, LoadOptions::new(Some(weights.len() as u64)))
            .unwrap();
        let head = write_list(backend.mem_mut(), nodes, &weights);
        let report = backend.run_invocation(&[head]).unwrap();
        assert!(matches!(report.cost, ExecutionCost::Cycles(c) if c > 0));
        assert_eq!(report.workers.len(), 1);
        assert_eq!(report.work_per_thread.len(), 2);
        assert_eq!(backend.name(), "sim");
        assert_eq!(backend.threads(), 2);
        assert!(backend.runner().is_some());
    }

    #[test]
    fn run_before_load_errors() {
        let mut backend = SimBackend::tiny(2);
        assert!(matches!(
            backend.run_invocation(&[0]),
            Err(BackendError::NotLoaded)
        ));
    }

    /// Tracing requested before `load` is remembered and armed on the machine
    /// `load` builds, so enable → load → run records events.
    #[test]
    fn tracing_enabled_before_load_records_events() {
        let weights: Vec<i64> = (0..60).map(|i| i + 3).collect();
        let (program, f, nodes, _) = list_min_program(weights.len() as i64 + 4);
        let mut backend = SimBackend::tiny(2);
        backend.enable_trace(1 << 10);
        assert!(backend.trace().is_none(), "no machine to record on yet");
        backend
            .load(program, f, LoadOptions::new(Some(60)))
            .unwrap();
        let head = write_list(backend.mem_mut(), nodes, &weights);
        backend.run_invocation(&[head]).unwrap();
        assert!(backend.trace().is_some_and(|t| t.events().count() > 0));
    }

    #[test]
    fn both_backends_squash_and_recover_cross_chunk_dependences() {
        use spice_ir::exec::MisspeculationCause;
        let n: i64 = 150;
        let v0: i64 = 30;
        let expected = n * v0 + n * (n - 1) / 2;
        for choice in [BackendChoice::SimTiny, BackendChoice::Native] {
            let (program, f, nodes) = chained_increment_program(n + 4);
            let mut backend = make_backend(choice, 3);
            backend
                .load(program, f, LoadOptions::new(Some(n as u64)))
                .unwrap();
            let mut values = vec![0; n as usize];
            values[0] = v0;
            write_list(backend.mem_mut(), nodes, &values);
            let mut saw_violation = false;
            for inv in 0..5 {
                let report = backend.run_invocation(&[nodes]).unwrap();
                assert_eq!(report.return_value, Some(expected), "{choice} inv {inv}");
                for i in 1..n {
                    assert_eq!(
                        backend.mem().read(nodes + 2 * i).unwrap(),
                        v0 + i,
                        "{choice} node {i} after invocation {inv}"
                    );
                }
                if report
                    .misspeculation_causes()
                    .iter()
                    .any(|c| matches!(c, MisspeculationCause::DependenceViolation { .. }))
                {
                    saw_violation = true;
                    assert!(report.squashed_chunks > 0, "{choice}");
                }
            }
            assert!(
                saw_violation,
                "{choice}: the conflict detector never fired on a conflict-carrying loop"
            );
        }
    }
}
