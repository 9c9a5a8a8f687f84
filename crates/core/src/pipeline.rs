//! End-to-end orchestration: run a Spice-transformed loop, invocation by
//! invocation, on the timing simulator.
//!
//! Everything Algorithm 2 does now runs as simulated code: the centralized
//! step is generated IR executing on core 0 at the start of every invocation
//! (its cycles and the `new_invocation` message traffic appear in the per-core
//! reports), and the distributed memoization runs inside every thread. The
//! host side of this runner only *reads* shared memory after an invocation —
//! to reconstruct the plan and the per-thread work counters for reports —
//! and never writes the predictor arrays.

use serde::{Deserialize, Serialize};

use spice_ir::exec::{
    BackendError, ChunkEnd, CommitChain, ExecutionCost, ExecutionReport, Throttle, WorkerReport,
};
use spice_ir::TraceEvent;
use spice_sim::machine::RunSummary;
use spice_sim::{Machine, SimError};

use crate::predictor::{read_plan, read_throttle, read_work, Assignment};
use crate::transform::SpiceParallelLoop;

/// A simulator failure (deadlock, cycle budget, unrecovered trap) as the
/// shared execution layer reports it.
fn engine(e: SimError) -> BackendError {
    BackendError::Engine(e.to_string())
}

/// Result of one parallel loop invocation.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct InvocationReport {
    /// Simulated cycles of this invocation.
    pub cycles: u64,
    /// Return value of the main thread's function.
    pub return_value: Option<i64>,
    /// Number of speculative threads whose chunk was committed.
    pub valid_workers: u64,
    /// Whether the dependence-violation throttle ran the invocation without
    /// workers: its `skip` word was nonzero when the invocation started.
    pub throttled: bool,
    /// Per-thread work counters reported by the distributed predictor.
    pub work: Vec<u64>,
    /// Full per-core simulator report.
    pub summary: RunSummary,
}

impl InvocationReport {
    /// Converts this simulator-specific report into the backend-neutral
    /// [`ExecutionReport`] of the shared execution layer. `worker_cores`
    /// maps worker index to simulated core (from
    /// [`SpiceParallelLoop::workers`]), whose `spec.check` verdicts are the
    /// RAW witnesses. Causes come from the commit rule, [`CommitChain`]: the
    /// merge chain validates a start exactly when it commits or checks the
    /// chunk, and never sees a validated chunk fault (it would hang). A
    /// throttled invocation tasked no chunk.
    #[must_use]
    pub fn to_execution_report(&self, worker_cores: &[usize]) -> ExecutionReport {
        let cost = ExecutionCost::Cycles(self.cycles);
        if self.throttled {
            return ExecutionReport::throttled("sim", cost, self.return_value, self.work.clone());
        }
        let valid_workers = usize::try_from(self.valid_workers).unwrap_or(usize::MAX);
        let witness = |i: usize| {
            let core = *worker_cores.get(i)?;
            self.summary.cores.get(core)?.spec_conflict_addr
        };
        // How the chunk before worker `i` (the main chunk for 0) ended.
        let end_before = |i: usize| {
            if i < valid_workers || witness(i).is_some() {
                ChunkEnd::Handoff
            } else {
                ChunkEnd::Exit
            }
        };
        let mut chain = CommitChain::new(end_before(0));
        let workers: Vec<WorkerReport> = (0..worker_cores.len())
            .map(|i| {
                let cause = chain.judge(end_before(i + 1), witness(i));
                WorkerReport {
                    cause,
                    work: self.work.get(i + 1).copied().unwrap_or(0),
                }
            })
            .collect();
        ExecutionReport::new("sim", cost, self.return_value, workers, self.work.clone())
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
    /// Whether the invocation in flight is throttled (read at its start).
    throttled: bool,
}

impl SpiceRunner {
    /// Creates a runner for a transformed loop. Predictor behaviour
    /// (re-memoization, load balancing, the first-invocation estimate) was
    /// fixed at transform time via [`crate::transform::SpiceOptions`].
    #[must_use]
    pub fn new(spice: SpiceParallelLoop) -> Self {
        SpiceRunner {
            spice,
            last_plan: Vec::new(),
            invocations: 0,
            throttled: false,
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
    /// workers with their `new_invocation` messages; afterwards the host
    /// *reads* the shared arrays to report the plan and the work counters.
    ///
    /// # Errors
    ///
    /// Returns [`BackendError::Engine`] if the simulation fails and
    /// [`BackendError::Memory`] if the predictor arrays cannot be read back.
    pub fn run_invocation(
        &mut self,
        machine: &mut Machine,
        args: &[i64],
    ) -> Result<InvocationReport, BackendError> {
        self.start_invocation(machine, args)?;
        self.finish_invocation(machine)
    }

    /// First half of [`SpiceRunner::run_invocation`]: clears threads, resets
    /// the clock, and spawns the main thread and every worker — but does not
    /// simulate. Time-travel drivers use this with [`Machine::run_until`] to
    /// pause an invocation mid-flight, snapshot it, and finish it (possibly
    /// on a resumed machine) with [`SpiceRunner::finish_invocation`].
    ///
    /// The host reads the throttle's `skip` word first: core 0's
    /// centralized step will throttle this invocation iff it is nonzero.
    ///
    /// # Errors
    ///
    /// Returns [`BackendError::Engine`] if a thread cannot be spawned and
    /// [`BackendError::Memory`] if the throttle's words cannot be read.
    pub fn start_invocation(
        &mut self,
        machine: &mut Machine,
        args: &[i64],
    ) -> Result<(), BackendError> {
        self.throttled = self.spice.conflict_detection
            && read_throttle(&self.spice.layout, machine.mem())?.skip > 0;
        machine.clear_threads();
        machine.reset_cycle_counter();
        machine.trace_emit(TraceEvent::InvocationBegin {
            index: self.invocations,
        });
        self.invocations += 1;

        machine.spawn(0, self.spice.main, args).map_err(engine)?;
        for w in &self.spice.workers {
            machine.spawn(w.core, w.func, &[]).map_err(engine)?;
        }
        Ok(())
    }

    /// Second half of [`SpiceRunner::run_invocation`]: simulates the spawned
    /// threads to completion and reads the plan and work counters back. May
    /// be called on a machine resumed from a snapshot of the started
    /// invocation.
    ///
    /// Committed workers are counted from the cores' reports: only a
    /// worker's commit path runs `spec.commit`, once per invocation.
    ///
    /// # Errors
    ///
    /// Returns [`BackendError::Engine`] if the simulation fails and
    /// [`BackendError::Memory`] if the predictor arrays cannot be read back.
    pub fn finish_invocation(
        &mut self,
        machine: &mut Machine,
    ) -> Result<InvocationReport, BackendError> {
        let summary = machine.run().map_err(engine)?;
        self.last_plan = read_plan(&self.spice.layout, machine.mem())?;
        let work = read_work(&self.spice.layout, machine.mem())?;
        let valid_workers: u64 = summary.cores.iter().map(|c| c.spec_commits).sum();
        let at = summary.cycles;
        let tasked = if self.throttled {
            let Throttle { streak, skip } = read_throttle(&self.spice.layout, machine.mem())?;
            machine.trace_emit(TraceEvent::Throttled { at, streak, skip });
            0
        } else {
            machine.trace_emit(TraceEvent::PredictorPlan {
                at,
                chunks: self.last_plan.len() as u64,
            });
            self.spice.workers.len() as u64
        };
        machine.trace_emit(TraceEvent::PredictorFeedback {
            at,
            committed: valid_workers,
            squashed: tasked - valid_workers,
        });

        Ok(InvocationReport {
            cycles: summary.cycles,
            return_value: machine.return_value(0),
            valid_workers,
            throttled: self.throttled,
            work,
            summary,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transform::{SpiceOptions, SpiceTransform};
    use spice_ir::analysis::derive_loop_spec;
    use spice_ir::builder::FunctionBuilder;
    use spice_ir::fixtures::write_list;
    use spice_ir::{BinOp, FuncId, Operand, Program};
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
            misspeculated.push(report.valid_workers < 1);
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
        let seq_cycles = m_seq
            .run_sequential(f_seq, &[head_seq, out_seq])
            .unwrap()
            .cycles;
        assert_eq!(m_seq.return_value(0), Some(sequential_min(&weights)));

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
        assert_eq!(report.valid_workers, 0, "the worker was squashed");
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
