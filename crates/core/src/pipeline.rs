//! End-to-end orchestration: run a Spice-transformed loop, invocation by
//! invocation, on the timing simulator.
//!
//! Everything Algorithm 2 does now runs as simulated code: the centralized
//! step is generated IR executing on core 0 at the start of every invocation
//! (its cycles and the `new_invocation` token traffic appear in the per-core
//! reports), and the distributed memoization runs inside every thread. The
//! host side of this runner only *reads* shared memory after an invocation —
//! to reconstruct the plan and the per-thread feedback for reports — and
//! never writes the predictor arrays.

use serde::{Deserialize, Serialize};

use spice_ir::exec::{ExecutionCost, ExecutionReport, MisspeculationCause, WorkerReport};
use spice_ir::{FuncId, TraceEvent, TrapKind};
use spice_sim::machine::RunSummary;
use spice_sim::{Machine, SimError};

use crate::predictor::{read_feedback, read_plan, Assignment};
use crate::transform::SpiceParallelLoop;

/// Errors surfaced while running a transformed loop.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PipelineError {
    /// The simulator reported an error (deadlock, cycle budget, unrecovered
    /// trap).
    Sim(SimError),
    /// A host-side memory access failed (corrupted predictor layout).
    Memory(TrapKind),
}

impl std::fmt::Display for PipelineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PipelineError::Sim(e) => write!(f, "simulation error: {e}"),
            PipelineError::Memory(t) => write!(f, "host memory access failed: {t}"),
        }
    }
}

impl std::error::Error for PipelineError {}

impl From<SimError> for PipelineError {
    fn from(e: SimError) -> Self {
        PipelineError::Sim(e)
    }
}

impl From<TrapKind> for PipelineError {
    fn from(t: TrapKind) -> Self {
        PipelineError::Memory(t)
    }
}

/// Result of one parallel loop invocation.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct InvocationReport {
    /// Simulated cycles of this invocation.
    pub cycles: u64,
    /// Return value of the main thread's function.
    pub return_value: Option<i64>,
    /// Whether any speculative thread was squashed.
    pub misspeculated: bool,
    /// Number of speculative threads whose chunk was committed.
    pub valid_workers: u64,
    /// Per-thread work counters reported by the distributed predictor.
    pub work: Vec<u64>,
    /// Full per-core simulator report.
    pub summary: RunSummary,
}

impl InvocationReport {
    /// Converts this simulator-specific report into the backend-neutral
    /// [`ExecutionReport`] of the shared execution layer. `worker_cores`
    /// maps worker index to simulated core (from
    /// [`SpiceParallelLoop::workers`]), used to attribute trap causes.
    #[must_use]
    pub fn to_execution_report(&self, worker_cores: &[usize]) -> ExecutionReport {
        let committed = usize::try_from(self.valid_workers).unwrap_or(usize::MAX);
        let workers: Vec<WorkerReport> = worker_cores
            .iter()
            .enumerate()
            .map(|(i, &core)| {
                let commit = i < committed;
                let conflict = self
                    .summary
                    .cores
                    .get(core)
                    .and_then(|c| c.spec_conflict_addr);
                let cause = if commit {
                    None
                } else if let Some(trap) = self.summary.cores.get(core).and_then(|c| c.trapped) {
                    Some(MisspeculationCause::Fault(trap))
                } else if let Some(addr) = conflict {
                    // The merge chain's spec.check found this chunk's read
                    // set overlapping an earlier chunk's committed writes.
                    Some(MisspeculationCause::DependenceViolation { addr })
                } else if i > committed {
                    Some(MisspeculationCause::SquashCascade)
                } else {
                    Some(MisspeculationCause::StalePrediction)
                };
                WorkerReport {
                    committed: commit,
                    cause,
                    work: self.work.get(i + 1).copied().unwrap_or(0),
                }
            })
            .collect();
        ExecutionReport {
            backend: "sim",
            cost: ExecutionCost::Cycles(self.cycles),
            return_value: self.return_value,
            misspeculated: self.misspeculated,
            committed_chunks: committed.min(worker_cores.len()),
            squashed_chunks: worker_cores.len().saturating_sub(committed),
            workers,
            work_per_thread: self.work.clone(),
        }
    }
}

/// Runs a Spice-transformed loop across invocations. The centralized
/// predictor runs *inside* the simulation (core 0's generated code); this
/// runner only spawns the threads and reads the feedback back afterwards.
#[derive(Debug)]
pub struct SpiceRunner {
    spice: SpiceParallelLoop,
    last_plan: Vec<Assignment>,
    invocations: u64,
}

impl SpiceRunner {
    /// Creates a runner for a transformed loop. Predictor behaviour
    /// (re-memoization, load balancing, the first-invocation estimate) was
    /// fixed at transform time via [`crate::transform::SpiceOptions`].
    #[must_use]
    pub fn new(spice: SpiceParallelLoop) -> Self {
        // The runner never sees the transformed `Program` (it lives in the
        // machine), so it cannot re-run the full lint stack — but the
        // program-free protocol-metadata checks (channel collisions,
        // duplicate worker cores) still guard against a corrupted or
        // hand-built loop description.
        if cfg!(debug_assertions) {
            if let Err(errs) = spice_ir::lint::check_protocol_metadata(&spice.protocol()) {
                let msgs: Vec<String> = errs.iter().map(ToString::to_string).collect();
                panic!(
                    "SpiceRunner::new given an inconsistent loop description: {}",
                    msgs.join("; ")
                );
            }
        }
        SpiceRunner {
            spice,
            last_plan: Vec::new(),
            invocations: 0,
        }
    }

    /// The transformed loop being run.
    #[must_use]
    pub fn spice(&self) -> &SpiceParallelLoop {
        &self.spice
    }

    /// The threshold assignments the on-core centralized step wrote for the
    /// most recent invocation, reconstructed from shared memory (ordered by
    /// `sva` row). Empty before the first invocation or when no plan was
    /// produced.
    #[must_use]
    pub fn last_plan(&self) -> &[Assignment] {
        &self.last_plan
    }

    /// Runs a single loop invocation: spawns the main thread (with `args`)
    /// and every worker, and simulates to completion. The main thread's
    /// entry code runs the centralized predictor step and releases the
    /// workers with their `new_invocation` tokens; afterwards the host
    /// *reads* the shared arrays to report the plan and the feedback.
    ///
    /// # Errors
    ///
    /// Returns a [`PipelineError`] if the simulation fails or the predictor
    /// arrays cannot be read back.
    pub fn run_invocation(
        &mut self,
        machine: &mut Machine,
        args: &[i64],
    ) -> Result<InvocationReport, PipelineError> {
        self.start_invocation(machine, args)?;
        self.finish_invocation(machine)
    }

    /// First half of [`SpiceRunner::run_invocation`]: clears threads, resets
    /// the clock, exempts the predictor arrays from conflict detection, and
    /// spawns the main thread and every worker — but does not simulate.
    /// Time-travel drivers use this with [`Machine::run_until`] to pause an
    /// invocation mid-flight, snapshot it, and finish it (possibly on a
    /// resumed machine) with [`SpiceRunner::finish_invocation`].
    ///
    /// # Errors
    ///
    /// Returns a [`PipelineError`] if a thread cannot be spawned.
    pub fn start_invocation(
        &mut self,
        machine: &mut Machine,
        args: &[i64],
    ) -> Result<(), PipelineError> {
        machine.clear_threads();
        machine.reset_cycle_counter();
        // The predictor arrays are runtime metadata ordered by the
        // new_invocation token protocol; the centralized step rewrites them
        // on core 0 every invocation, so they must not feed the
        // program-data conflict detector (idempotent, cheap).
        let (lo, hi) = self.spice.layout.address_range();
        machine.set_conflict_exempt(lo, hi);
        machine.trace_emit(TraceEvent::InvocationBegin {
            index: self.invocations,
        });
        self.invocations += 1;

        machine.spawn(0, self.spice.main, args)?;
        for w in &self.spice.workers {
            machine.spawn(w.core, w.func, &[])?;
        }
        Ok(())
    }

    /// Second half of [`SpiceRunner::run_invocation`]: simulates the spawned
    /// threads to completion and reads the plan/feedback back. May be called
    /// on a machine resumed from a snapshot of the started invocation.
    ///
    /// # Errors
    ///
    /// Returns a [`PipelineError`] if the simulation fails or the predictor
    /// arrays cannot be read back.
    pub fn finish_invocation(
        &mut self,
        machine: &mut Machine,
    ) -> Result<InvocationReport, PipelineError> {
        let summary = machine.run()?;
        self.last_plan = read_plan(&self.spice.layout, machine.mem())?;
        let feedback = read_feedback(&self.spice.layout, machine.mem())?;
        let workers = self.spice.workers.len() as u64;
        machine.trace_emit(TraceEvent::PredictorPlan {
            at: summary.cycles,
            chunks: self.last_plan.len() as u64,
        });
        machine.trace_emit(TraceEvent::PredictorFeedback {
            at: summary.cycles,
            committed: feedback.valid_workers.min(workers),
            squashed: workers.saturating_sub(feedback.valid_workers),
        });

        Ok(InvocationReport {
            cycles: summary.cycles,
            return_value: machine.return_value(0),
            misspeculated: feedback.misspeculated,
            valid_workers: feedback.valid_workers,
            work: feedback.work,
            summary,
        })
    }
}

/// Runs an untransformed function on core 0 of `machine` for one invocation
/// and reports `(cycles, return value)`. This is the single-threaded baseline
/// every speedup in the paper is measured against.
///
/// # Errors
///
/// Returns a [`PipelineError`] if the simulation fails.
pub fn run_sequential(
    machine: &mut Machine,
    func: FuncId,
    args: &[i64],
) -> Result<(u64, Option<i64>), PipelineError> {
    let summary = machine.run_sequential(func, args)?;
    Ok((summary.cycles, machine.return_value(0)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transform::{SpiceOptions, SpiceTransform};
    use spice_ir::analysis::derive_loop_spec;
    use spice_ir::builder::FunctionBuilder;
    use spice_ir::fixtures::write_list;
    use spice_ir::{BinOp, Operand, Program};
    use spice_sim::MachineConfig;

    /// Builds the otter-style loop and returns (program, func, list layout
    /// helpers). The list nodes live in a global array of (weight, next)
    /// pairs so the test can build and mutate lists.
    fn otter_program(capacity: i64) -> (Program, FuncId, i64) {
        let mut p = Program::new();
        let nodes_base = p.add_global("nodes", capacity * 2);
        let mut b = FunctionBuilder::new("find_lightest");
        let c0 = b.param();
        let out_addr = b.param();
        let pre = b.new_labeled_block("preheader");
        let header = b.new_labeled_block("header");
        let body = b.new_labeled_block("body");
        let exit = b.new_labeled_block("exit");
        let c = b.copy(c0);
        let wm = b.copy(i64::MAX);
        let cm = b.copy(0i64);
        b.br(pre);
        b.switch_to(pre);
        b.br(header);
        b.switch_to(header);
        let done = b.binop(BinOp::Eq, c, 0i64);
        b.cond_br(done, exit, body);
        b.switch_to(body);
        let w = b.load(c, 0);
        let better = b.binop(BinOp::Lt, w, wm);
        let new_wm = b.select(better, w, wm);
        b.copy_into(wm, new_wm);
        let new_cm = b.select(better, c, cm);
        b.copy_into(cm, new_cm);
        let next = b.load(c, 1);
        b.copy_into(c, next);
        b.br(header);
        b.switch_to(exit);
        b.store(cm, out_addr, 0);
        b.ret(Some(Operand::Reg(wm)));
        let f = p.add_func(b.finish());
        (p, f, nodes_base)
    }

    fn sequential_min(weights: &[i64]) -> i64 {
        weights.iter().copied().min().unwrap_or(i64::MAX)
    }

    #[test]
    fn spice_two_threads_matches_sequential_result() {
        let weights: Vec<i64> = (0..200).map(|i| ((i * 37) % 211) + 5).collect();
        let (mut p, f, base) = otter_program(weights.len() as i64 + 8);
        let out_global = p.add_global("out", 1);
        let analysis = derive_loop_spec(&p, f, None).unwrap();
        let spice = SpiceTransform::new(SpiceOptions::with_threads_and_estimate(
            2,
            weights.len() as u64,
        ))
        .apply(&mut p, &analysis)
        .unwrap();

        let mut machine = Machine::new(MachineConfig::test_tiny(2), p);
        let head = write_list(machine.mem_mut(), base, &weights);
        let mut runner = SpiceRunner::new(spice);

        // Several invocations over the same (unchanged) list: after the first
        // one the predictions must hit and the result stays correct.
        let mut misspeculated = Vec::new();
        for _ in 0..4 {
            let report = runner
                .run_invocation(&mut machine, &[head, out_global])
                .unwrap();
            assert_eq!(report.return_value, Some(sequential_min(&weights)));
            misspeculated.push(report.misspeculated);
        }
        assert!(
            misspeculated.contains(&false),
            "speculation never succeeded on a stable list: {misspeculated:?}"
        );
    }

    #[test]
    fn spice_four_threads_correct_and_faster_than_sequential() {
        let weights: Vec<i64> = (0..400).map(|i| ((i * 53) % 997) + 1).collect();
        let (p_seq, f_seq, base_seq) = otter_program(weights.len() as i64 + 8);
        let (mut p, f, base) = otter_program(weights.len() as i64 + 8);
        let out_global_seq = {
            let mut p2 = p_seq.clone();
            let g = p2.add_global("out", 1);
            drop(p2);
            g
        };
        // Rebuild sequential program with the out global so addresses line up.
        let mut p_seq = p_seq;
        let out_seq = p_seq.add_global("out", 1);
        assert_eq!(out_seq, out_global_seq);
        let out_global = p.add_global("out", 1);

        // Sequential baseline.
        let mut m_seq = Machine::new(MachineConfig::test_tiny(1), p_seq);
        let head_seq = write_list(m_seq.mem_mut(), base_seq, &weights);
        let (seq_cycles, seq_val) =
            run_sequential(&mut m_seq, f_seq, &[head_seq, out_seq]).unwrap();
        assert_eq!(seq_val, Some(sequential_min(&weights)));

        // Spice with 4 threads.
        let analysis = derive_loop_spec(&p, f, None).unwrap();
        let spice = SpiceTransform::new(SpiceOptions::with_threads_and_estimate(
            4,
            weights.len() as u64,
        ))
        .apply(&mut p, &analysis)
        .unwrap();
        let mut machine = Machine::new(MachineConfig::test_tiny(4), p);
        let head = write_list(machine.mem_mut(), base, &weights);
        let mut runner = SpiceRunner::new(spice);

        let mut best_cycles = u64::MAX;
        let mut retired_per_core = Vec::new();
        for _ in 0..5 {
            let report = runner
                .run_invocation(&mut machine, &[head, out_global])
                .unwrap();
            assert_eq!(report.return_value, Some(sequential_min(&weights)));
            best_cycles = best_cycles.min(report.cycles);
            let retired: Vec<u64> = report.summary.cores.iter().map(|c| c.retired).collect();
            retired_per_core.push(retired);
        }
        assert!(
            best_cycles < seq_cycles,
            "expected a parallel speedup: sequential {seq_cycles} vs best parallel {best_cycles}"
        );
        // With 4 threads and a stable list, at least one invocation should
        // split work across several cores.
        let spread = retired_per_core
            .iter()
            .any(|w| w.iter().filter(|&&x| x > 0).count() >= 3);
        assert!(
            spread,
            "work never spread across cores: {retired_per_core:?}"
        );
    }

    #[test]
    fn stale_prediction_is_squashed_and_result_stays_correct() {
        let weights: Vec<i64> = (0..120).map(|i| 1000 - i).collect();
        let (mut p, f, base) = otter_program(weights.len() as i64 + 8);
        let out_global = p.add_global("out", 1);
        let analysis = derive_loop_spec(&p, f, None).unwrap();
        let spice = SpiceTransform::new(SpiceOptions::with_threads_and_estimate(
            2,
            weights.len() as u64,
        ))
        .apply(&mut p, &analysis)
        .unwrap();
        let sva_base = spice.layout.sva_base;

        let mut machine = Machine::new(MachineConfig::test_tiny(2), p);
        let head = write_list(machine.mem_mut(), base, &weights);
        let mut runner = SpiceRunner::new(spice);

        // Warm up so the sva holds a real node address.
        runner
            .run_invocation(&mut machine, &[head, out_global])
            .unwrap();
        // Corrupt the prediction with an address that is NOT on the list
        // (points into the middle of a node pair), simulating a deleted node
        // whose memory now holds garbage.
        machine.mem_mut().write(sva_base, base + 1).unwrap();
        // Also poison that location's "next" field with a wild pointer so the
        // speculative thread actually traps.
        machine.mem_mut().write(base + 2, -77).unwrap();
        let report = runner
            .run_invocation(&mut machine, &[head, out_global])
            .unwrap();
        assert!(report.misspeculated);
        // The main thread still produced the right answer because it executed
        // every iteration itself (weight at base+2 was clobbered to -77,
        // which IS on the list as node 1's weight).
        let expected = {
            let mut w2 = weights.clone();
            w2[1] = -77;
            sequential_min(&w2)
        };
        assert_eq!(report.return_value, Some(expected));
    }
}
