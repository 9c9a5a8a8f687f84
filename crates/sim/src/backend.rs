//! The sequential [`ExecutionBackend`] of the timing simulator: the
//! untransformed kernel on one simulated core.
//!
//! This is the denominator of every speedup the reproduction reports, so it
//! runs through the same invocation loop as the Spice numerator
//! (`spice_workloads::drive_loaded_workload`) instead of a hand-written
//! twin. Observers — event tracing, cycle attribution, periodic snapshots —
//! are armed on [`SequentialSimBackend::machine_mut`] before the loop and
//! read off [`SequentialSimBackend::machine`] after it.

use spice_ir::exec::{BackendError, ExecutionBackend, ExecutionCost, ExecutionReport, LoadOptions};
use spice_ir::interp::FlatMemory;
use spice_ir::{FuncId, Program, TraceRecorder};

use crate::{Machine, MachineConfig};

/// Sequential execution on core 0 of a one-core [`Machine`].
#[derive(Debug)]
pub struct SequentialSimBackend {
    config: MachineConfig,
    /// Trace capacity requested through `enable_trace`, armed on the machine
    /// `load` builds (tracing may be requested before `load`).
    trace_capacity: Option<usize>,
    loaded: Option<(Machine, FuncId)>,
}

impl SequentialSimBackend {
    /// Creates a backend simulating one core of `config`.
    #[must_use]
    pub fn new(config: MachineConfig) -> Self {
        SequentialSimBackend {
            config: config.with_cores(1),
            trace_capacity: None,
            loaded: None,
        }
    }

    /// A backend already loaded with `machine`, whose program contains
    /// `kernel` — how a shared preparation instantiates per-job backends
    /// without re-decoding.
    #[must_use]
    pub fn from_machine(machine: Machine, kernel: FuncId) -> Self {
        SequentialSimBackend {
            config: machine.config().clone(),
            trace_capacity: None,
            loaded: Some((machine, kernel)),
        }
    }

    /// The loaded machine. `None` before `load`.
    #[must_use]
    pub fn machine(&self) -> Option<&Machine> {
        self.loaded.as_ref().map(|(m, _)| m)
    }

    /// Mutable access to the loaded machine (arm tracing, attribution,
    /// snapshots). `None` before `load`.
    pub fn machine_mut(&mut self) -> Option<&mut Machine> {
        self.loaded.as_mut().map(|(m, _)| m)
    }
}

impl ExecutionBackend for SequentialSimBackend {
    fn name(&self) -> &'static str {
        "sim-sequential"
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
        // Same heap rule as the Spice preparation: the larger of the
        // machine's own reservation and the caller's request.
        let mut config = self.config.clone();
        config.heap_words = config.heap_words.max(options.heap_words);
        let mut machine = Machine::new(config, program);
        if let Some(capacity) = self.trace_capacity {
            machine.enable_trace(capacity);
        }
        self.loaded = Some((machine, kernel));
        Ok(())
    }

    fn mem(&self) -> &FlatMemory {
        self.machine().expect("load() first").mem()
    }

    fn mem_mut(&mut self) -> &mut FlatMemory {
        self.machine_mut().expect("load() first").mem_mut()
    }

    fn run_invocation(&mut self, args: &[i64]) -> Result<ExecutionReport, BackendError> {
        let (machine, kernel) = self.loaded.as_mut().ok_or(BackendError::NotLoaded)?;
        let summary = machine
            .run_sequential(*kernel, args)
            .map_err(|e| BackendError::Engine(e.to_string()))?;
        Ok(ExecutionReport {
            backend: "sim-sequential",
            cost: ExecutionCost::Cycles(summary.cycles),
            return_value: machine.return_value(0),
            misspeculated: false,
            committed_chunks: 0,
            squashed_chunks: 0,
            workers: Vec::new(),
            work_per_thread: vec![summary.total_retired()],
        })
    }

    fn enable_trace(&mut self, capacity: usize) {
        self.trace_capacity = Some(capacity);
        if let Some(m) = self.machine_mut() {
            m.enable_trace(capacity);
        }
    }

    fn trace(&self) -> Option<&TraceRecorder> {
        self.machine().and_then(Machine::trace)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spice_ir::builder::FunctionBuilder;
    use spice_ir::Operand;

    fn load_cell_program() -> (Program, FuncId, i64) {
        let mut b = FunctionBuilder::new("load_cell");
        let addr = b.param();
        let v = b.load(addr, 0);
        b.ret(Some(Operand::Reg(v)));
        let mut p = Program::new();
        let cell = p.add_global("cell", 1);
        let f = p.add_func(b.finish());
        (p, f, cell)
    }

    /// Loaded through `load` or wrapped around an existing machine, the
    /// backend times an invocation exactly as `Machine::run_sequential`
    /// does, on one core, with per-invocation clocks.
    #[test]
    fn invocations_cost_what_the_bare_machine_costs() {
        let (p, f, cell) = load_cell_program();
        let mut bare = Machine::new(MachineConfig::test_tiny(1), p.clone());
        bare.mem_mut().write(cell, 9).unwrap();
        let cold = bare.run_sequential(f, &[cell]).unwrap().cycles;
        let warm = bare.run_sequential(f, &[cell]).unwrap().cycles;
        assert!(warm <= cold && warm > 0, "caches persist, clocks reset");

        // Four configured cores still mean one: sequential is sequential.
        let mut backend = SequentialSimBackend::new(MachineConfig::test_tiny(4));
        assert!(matches!(
            backend.run_invocation(&[cell]),
            Err(BackendError::NotLoaded)
        ));
        backend.load(p, f, LoadOptions::new(1 << 20, None)).unwrap();
        let machine = backend.machine().unwrap();
        assert_eq!(machine.config().cores, 1);
        assert!(machine.mem().size() > 1 << 20, "requested heap honoured");
        backend.mem_mut().write(cell, 9).unwrap();
        for expected in [cold, warm] {
            let report = backend.run_invocation(&[cell]).unwrap();
            assert_eq!(report.cost, ExecutionCost::Cycles(expected));
            assert_eq!(report.return_value, Some(9));
            assert_eq!(report.work_per_thread.len(), 1);
        }

        let mut wrapped = SequentialSimBackend::from_machine(bare, f);
        assert_eq!(wrapped.threads(), 1);
        let report = wrapped.run_invocation(&[cell]).unwrap();
        assert_eq!(report.cost, ExecutionCost::Cycles(warm));
    }

    /// Observers arm on the backend before the run — before `load` too: the
    /// request is remembered and armed on the machine `load` builds — and
    /// read off it after.
    #[test]
    fn tracing_is_armed_on_and_read_off_the_backend() {
        let (p, f, cell) = load_cell_program();
        let mut backend = SequentialSimBackend::new(MachineConfig::test_tiny(1));
        backend.enable_trace(64);
        assert!(backend.trace().is_none(), "no machine to record on yet");
        backend.load(p, f, LoadOptions::default()).unwrap();
        backend.run_invocation(&[cell]).unwrap();
        assert!(backend.trace().is_some_and(|t| t.events().count() > 0));
    }
}
