//! Decode-once program preparation for simulated runs.
//!
//! Everything immutable about a simulated run is built once: the (possibly
//! transformed) [`Program`] and its [`DecodedProgram`] execution form.
//! [`PreparedProgram`] is that bundle, with both behind [`Arc`], so
//! instantiating one more machine over it is two reference-count bumps plus
//! a fresh [`FlatMemory::for_program`] ([`Machine::from_shared`]) — a copy
//! of the program's globals, no re-decode. Each farm job prepares its own
//! cell; the repo benchmark's repeated instantiation and the farm's failure
//! capture (a traced re-run of a failed job) are what reuse a preparation.
//!
//! [`FlatMemory::for_program`]: spice_ir::interp::FlatMemory::for_program
//!
//! [`SimBackend::load`](crate::backend::SimBackend) is itself implemented
//! over [`PreparedProgram::spice`], so a serial run and a sweep job execute
//! the same preparation logic by construction — which is what keeps farm
//! artifacts byte-identical to serially produced ones. A preparation of
//! either kind instantiates through
//! [`SimBackend::from_prepared`](crate::backend::SimBackend::from_prepared).

use std::sync::Arc;

use spice_ir::exec::{derive_loop_spec, BackendError, LoadOptions};
use spice_ir::{DecodedProgram, FuncId, Program};
use spice_sim::{Machine, MachineConfig};

use crate::predictor::PredictorOptions;
use crate::transform::{SpiceOptions, SpiceParallelLoop, SpiceTransform};

/// What kind of execution a [`PreparedProgram`] was prepared for.
#[derive(Debug, Clone)]
pub(crate) enum PreparedKind {
    /// Untransformed program; each instantiation runs this kernel on core 0
    /// of a one-core machine.
    Sequential(FuncId),
    /// Spice-transformed program plus the transform's loop description; each
    /// instantiation gets its own [`SpiceRunner`] over the shared loop.
    Spice(Box<SpiceParallelLoop>),
}

/// An immutable, shareable preparation of one program for one machine
/// configuration: decoded form and (for Spice runs) the transformed loop.
/// Build once, instantiate per job.
#[derive(Debug, Clone)]
pub struct PreparedProgram {
    program: Arc<Program>,
    decoded: Arc<DecodedProgram>,
    config: MachineConfig,
    kind: PreparedKind,
}

impl PreparedProgram {
    /// Prepares `program` for sequential execution of `kernel` on `config`:
    /// decode, no transformation.
    #[must_use]
    pub fn sequential(config: MachineConfig, program: Program, kernel: FuncId) -> Self {
        let decoded = Arc::new(DecodedProgram::new(&program));
        PreparedProgram {
            program: Arc::new(program),
            decoded,
            config,
            kind: PreparedKind::Sequential(kernel),
        }
    }

    /// Prepares `program` for Spice execution: loop analysis, the Spice
    /// transformation with `threads` threads and `predictor`, and the
    /// machine configuration adjustments [`SimBackend::load`] performs
    /// (cores, conflict granularity).
    ///
    /// [`SimBackend::load`]: crate::backend::SimBackend
    ///
    /// # Errors
    ///
    /// Returns [`BackendError::Granularity`] for a conflict-detection grain
    /// coarser than the predictor's slabs and [`BackendError::Spec`] if the
    /// loop is not Spice-parallelizable (the errors `NativeLoopBackend::load`
    /// returns for them), and [`BackendError::Analysis`] if the
    /// transformation fails.
    pub fn spice(
        base_config: MachineConfig,
        threads: usize,
        predictor: PredictorOptions,
        mut program: Program,
        kernel: FuncId,
        options: LoadOptions,
    ) -> Result<Self, BackendError> {
        options.validate()?;
        let analysis = derive_loop_spec(&program, kernel, options.loop_header)?;
        let spice = SpiceTransform::new(SpiceOptions {
            threads,
            predictor,
            work_estimate: options.work_estimate,
            conflict_policy: options.conflict_policy,
        })
        .apply(&mut program, &analysis)
        .map_err(|e| BackendError::Analysis(e.to_string()))?;
        let mut config = base_config.with_cores(threads);
        // Conflict tracking follows the program: the transform emits a
        // `spec.check` per worker exactly under `ConflictPolicy::Detect`.
        config.conflict_granularity_log2 = options.conflict_granularity_log2;
        let decoded = Arc::new(DecodedProgram::new(&program));
        Ok(PreparedProgram {
            program: Arc::new(program),
            decoded,
            config,
            kind: PreparedKind::Spice(Box::new(spice)),
        })
    }

    /// The machine configuration instantiations run under.
    #[must_use]
    pub fn config(&self) -> &MachineConfig {
        &self.config
    }

    /// What instantiations of this preparation execute.
    pub(crate) fn kind(&self) -> &PreparedKind {
        &self.kind
    }

    /// Whether this preparation carries a Spice transformation.
    #[must_use]
    pub fn is_spice(&self) -> bool {
        matches!(self.kind, PreparedKind::Spice(_))
    }

    /// Threads the Spice transform was generated for; 1 for sequential
    /// preparations.
    #[must_use]
    pub fn threads(&self) -> usize {
        match &self.kind {
            PreparedKind::Sequential(_) => 1,
            PreparedKind::Spice(spice) => spice.threads(),
        }
    }

    /// Instantiates a fresh machine over the shared program state: its own
    /// memory with the globals materialized and the heap zeroed (the state
    /// every job's `init` starts from), shared `Arc`s for the program and
    /// its decoded form. Mutations of one instantiation never touch another.
    #[must_use]
    pub fn machine(&self) -> Machine {
        Machine::from_shared(
            self.config.clone(),
            Arc::clone(&self.program),
            Arc::clone(&self.decoded),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::SimBackend;
    use spice_ir::builder::FunctionBuilder;
    use spice_ir::exec::ExecutionBackend;
    use spice_ir::fixtures::write_list;
    use spice_ir::{BinOp, Operand};

    fn list_sum_program(capacity: i64) -> (Program, FuncId, i64) {
        let mut program = Program::new();
        let nodes = program.add_global("nodes", capacity * 2);
        let mut b = FunctionBuilder::new("list_sum");
        let head = b.param();
        let pre = b.new_block();
        let header = b.new_block();
        let body = b.new_block();
        let exit = b.new_block();
        let c = b.copy(head);
        let sum = b.copy(0i64);
        b.br(pre);
        b.switch_to(pre);
        b.br(header);
        b.switch_to(header);
        let done = b.binop(BinOp::Eq, c, 0i64);
        b.cond_br(done, exit, body);
        b.switch_to(body);
        let w = b.load(c, 0);
        let s = b.binop(BinOp::Add, sum, w);
        b.copy_into(sum, s);
        let nx = b.load(c, 1);
        b.copy_into(c, nx);
        b.br(header);
        b.switch_to(exit);
        b.ret(Some(Operand::Reg(sum)));
        let f = program.add_func(b.finish());
        (program, f, nodes)
    }

    /// Two machines instantiated from one preparation share the decoded
    /// program (pointer-equal Arcs) yet have fully independent memory.
    #[test]
    fn instantiations_share_decode_but_not_memory() {
        let (program, f, nodes) = list_sum_program(64);
        let prepared = PreparedProgram::sequential(MachineConfig::test_tiny(1), program, f);
        assert!(!prepared.is_spice());
        assert_eq!(prepared.threads(), 1);

        let mut a = prepared.machine();
        let mut b = prepared.machine();
        assert!(std::ptr::eq(a.program(), b.program()), "program is shared");

        write_list(a.mem_mut(), nodes, &[5, 6, 7]);
        write_list(b.mem_mut(), nodes, &[10, 20, 30]);
        a.run_sequential(f, &[nodes]).unwrap();
        b.run_sequential(f, &[nodes]).unwrap();
        assert_eq!(a.return_value(0), Some(18));
        assert_eq!(
            b.return_value(0),
            Some(60),
            "b unaffected by a's memory writes"
        );

        // The same preparation instantiates as a backend — the one-core
        // baseline, with no runner to split off.
        let mut backend = SimBackend::from_prepared(&prepared);
        assert_eq!(backend.threads(), 1);
        assert!(backend.parts_mut().is_none() && backend.runner().is_none());
        write_list(backend.mem_mut(), nodes, &[5, 6, 7]);
        let report = backend.run_invocation(&[nodes]).unwrap();
        assert_eq!(report.return_value, Some(18));
        assert_eq!(report.backend, "sim-sequential");
    }

    /// An instantiation's memory is exactly the (transformed) program's
    /// globals, on the Table 1 machine as on any other: nothing is reserved
    /// past them.
    #[test]
    fn instantiation_sizes_memory_to_the_globals() {
        let config = MachineConfig::itanium2_cmp();
        let (program, f, _) = list_sum_program(64);
        let sequential = PreparedProgram::sequential(config.clone(), program, f);
        let (program, f, _) = list_sum_program(64);
        let spice = PreparedProgram::spice(
            config,
            4,
            PredictorOptions::default(),
            program,
            f,
            LoadOptions::new(Some(16)),
        )
        .unwrap();
        for prepared in [&sequential, &spice] {
            let machine = prepared.machine();
            let data_end = machine.program().data_end() as usize;
            assert_eq!(machine.mem().size(), data_end);
            assert_eq!(SimBackend::from_prepared(prepared).mem().size(), data_end);
        }
    }

    /// A Spice preparation instantiated twice runs both jobs to the correct
    /// result with per-job runner state.
    #[test]
    fn spice_preparation_supports_independent_jobs() {
        let (program, f, nodes) = list_sum_program(64);
        let prepared = PreparedProgram::spice(
            MachineConfig::test_tiny(2),
            2,
            PredictorOptions::default(),
            program,
            f,
            LoadOptions::new(Some(16)),
        )
        .unwrap();
        assert!(prepared.is_spice());
        assert_eq!(prepared.threads(), 2);

        for weights in [vec![1i64, 2, 3, 4], vec![5i64; 8]] {
            let expected: i64 = weights.iter().sum();
            let mut backend = SimBackend::from_prepared(&prepared);
            write_list(backend.mem_mut(), nodes, &weights);
            for _ in 0..3 {
                let report = backend.run_invocation(&[nodes]).unwrap();
                assert_eq!(report.return_value, Some(expected));
            }
        }
    }
}
